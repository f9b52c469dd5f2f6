"""Smoke runs of the benchmark scripts at toy sizes, and their timer.

The scripts reach into names of the library that are private or that the
package does not export (``products._per_pair``, the ``_SMALL_*`` cutoffs,
the slots rule's ``multivector._SLOTS_PER_TERM`` and ``_FEW_TERMS``,
``kernels.packed_product``, ``kernels._operands``, ``kernels.pair_table``,
``kernels.region_masks``, ``kernels.FILTER_*``, ``Multivector._wrap``, the
stored lists ``Multivector._keys`` and ``_coeffs``, ``exprparse.tokenize``),
so a refactor can break them without any other test noticing.  Each run checks the exit code and the header the script
prints; the timings themselves are not checked.  ``benchmarks/ab.py``
compares the working tree with ``HEAD``, which it exports with
``git archive``, so that run needs the repository's history.  The sweep
also writes its rows into a copy of ``BENCH_products.json`` with ``--json``,
which must keep the file's other keys.  ``ab.interleaved_rounds``, the timer
behind every speed claim of both scripts, is driven with counting fake calls
and a fake clock, and so is ``ab.compare_times`` with a parent that lacks an
op; its quartile column is read off fake round times.  ``ab.py --diff``
runs the lexer differential against ``HEAD`` on a few hundred strings, and
must find the working tree's lexer unchanged.
"""

import collections
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


#: Stands in an argument list for the path of the trajectory copy.
TRAJECTORY = "BENCH_products.json"
#: The size sweep's columns, in the order it writes them.
SWEEP_COLUMNS = ["python", "numpy", "kernel", "lc python", "lc numpy", "wedge python", "wedge numpy"]


@pytest.mark.parametrize("args, header", [
    (("benchmarks/bench_products.py", "--sizes", "8,16", "--repeats", "1", "--json", TRAJECTORY),
     ("terms", "pairs", "python", "numpy", "kernel", "lc python", "wedge numpy")),
    (("benchmarks/bench_products.py", "--cutoffs", "--repeats", "1"),
     ("median per-pair/packed over signatures and dimensions",
      "_SMALL_PAIRS (now", "_SMALL_WEDGE_PAIRS (now", "_SMALL_CONTRACTION_PAIRS (now")),
    (("benchmarks/bench_products.py", "--slots", "--repeats", "1"),
     ("slots ahead through this many slots per term", "geometric", "sum",
      "multivector._SLOTS_PER_TERM (now", "_FEW_TERMS (now")),
], ids=["sweep", "cutoffs", "slots"])
def test_benchmark_script_runs(args, header, tmp_path):
    trajectory = tmp_path / TRAJECTORY
    if TRAJECTORY in args:
        shutil.copy(ROOT / TRAJECTORY, trajectory)
    out = run_script(*(str(trajectory) if arg == TRAJECTORY else arg for arg in args))
    for text in header:
        assert text in out
    if TRAJECTORY in args:
        committed = json.loads((ROOT / TRAJECTORY).read_text())
        written = json.loads(trajectory.read_text())
        assert [row["terms"] for row in written["rows"]] == [8, 16]
        assert all(list(row["us"]) == SWEEP_COLUMNS for row in written["rows"])
        for key in ("cutoffs", "cutoff_history"):
            assert written[key] == committed[key]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_interleaved_rounds_repeats_a_pass_until_its_minimum_time(monkeypatch):
    ab = load_ab()
    clock = iter(range(10**6))  # one second passes at every reading
    monkeypatch.setattr(ab.time, "perf_counter", lambda: next(clock))
    log = []
    rows = {name: (lambda item, name=name: log.append((name, item)), ["a", "b"]) for name in "pq"}
    rounds = ab.interleaved_rounds(rows, 2, before=lambda name: log.append((name, None)), min_seconds=2.5)
    # three passes of one second each reach 2.5 s: 3 s over 6 items a round
    assert rounds == {"p": [0.5, 0.5], "q": [0.5, 0.5]}
    assert collections.Counter(log) == {(name, item): 3 * 3 for name in rows for item in (None, "a", "b")}


def test_interleaved_rounds_times_the_rows_of_a_group_in_turns(monkeypatch):
    ab = load_ab()
    clock = iter(range(10**6))  # one second passes at every reading
    monkeypatch.setattr(ab.time, "perf_counter", lambda: next(clock))
    log = []
    rows = {name: (lambda item, name=name: log.append(name), ["a"]) for name in ("p1", "q1", "p2")}
    rounds = ab.interleaved_rounds(rows, 3, min_seconds=2.5, group=lambda name: name[1])
    assert rounds == {name: [1.0] * 3 for name in rows}
    # each round: p2's three passes in a row, and p1's and q1's taking turns
    for r in range(4):
        passes = log[9 * r:9 * r + 9]
        grouped = [name for name in passes if name != "p2"]
        assert "p2" * 3 in "".join(passes)
        assert sorted(grouped) == ["p1"] * 3 + ["q1"] * 3
        assert all(a != b for a, b in zip(grouped, grouped[1:]))


def test_interleaved_rounds_runs_every_row_once_a_round_in_a_varying_order():
    ab = load_ab()
    repeats = 4
    log = []
    rows = {name: (lambda item, name=name: log.append((name, item)), ["a", "b"]) for name in "pqrst"}
    rounds = ab.interleaved_rounds(rows, repeats, before=lambda name: log.append((name, None)))
    # the warm-up round is run and then dropped
    assert list(rounds) == list(rows)
    assert all(len(times) == repeats for times in rounds.values())
    assert collections.Counter(log) == {(name, item): repeats + 1
                                        for name in rows for item in (None, "a", "b")}
    # each pass of a row: before(name), then its items in order
    passes = [log[i:i + 3] for i in range(0, len(log), 3)]
    assert all(p == [(p[0][0], None), (p[0][0], "a"), (p[0][0], "b")] for p in passes)
    orders = [tuple(p[0][0] for p in passes[r:r + len(rows)]) for r in range(0, len(passes), len(rows))]
    assert len(orders) == repeats + 1
    assert all(sorted(order) == sorted(rows) for order in orders)
    assert len(set(orders)) > 1


#: ``ab.py``'s ops, in the order it prints them: products and sums, the
#: calculator's layers, ``run_command`` by line kind and on the README's
#: first line, and start-up.
AB_OPS = ["1x1 Cl(3,1)", "4x4 Cl(3,1)", "9x9 Cl(3,1)", "4x4 Cl(6,4) dim 12", "4x4 wedge dim 12",
          "criterion 7", "9x9 wedge dim 6", "9x9 _| dim 6",
          "high_index 45x45", "high_index 45x45 _|", "high_index 45x45 ^",
          "81-pair kernel", "512x512 dim 10", "1024x1024 dim 12", "python 512x512 dim 10",
          "4+4 dim 6", "high_index 45+45", "512+512 dim 10", "parse 6 terms",
          "tokenize", "tokenize cold", "parse_expr", "eval_expr", "render",
          "literal", "binary", "power", "grades", "command", "star literal",
          "python -c pass", "import cliffcalc", "cliffcalc --script"]


def has_history() -> bool:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not has_history(), reason="needs a git checkout to export HEAD from")
def test_ab_times_the_working_tree_against_a_revision():
    def src_files():
        return {path: path.read_bytes() for path in (ROOT / "src").rglob("*")
                if path.is_file() and "__pycache__" not in path.parts}

    before = src_files()
    out = run_script("benchmarks/ab.py", "--parent", "HEAD", "--repeats", "1")
    assert src_files() == before
    assert "parent HEAD against the working tree" in out
    assert "change/parent" in out and "q1-q3" in out
    # one row per op, each ending in its rounds won of the one timed
    rows = [line for line in out.splitlines() if line.endswith(("0/1", "1/1"))]
    assert [row.rsplit(None, 5)[0] for row in rows] == AB_OPS
    # the quartiles of one round's ratio are that ratio
    assert all(row.split()[-2] == f"{row.split()[-3]}-{row.split()[-3]}" for row in rows)


@pytest.mark.skipif(not has_history(), reason="needs a git checkout to export HEAD from")
def test_ab_diff_runs_the_lexer_differential():
    out = run_script("benchmarks/ab.py", "--parent", "HEAD", "--diff", "300")
    assert "lexer differential: 300 strings, 0 differences" in out


def test_ab_skips_an_op_that_the_parent_lacks(monkeypatch, capsys):
    """An op missing from the parent's rows is reported as skipped and timed
    under neither tree; the kernel row's operands take each tree's stored form."""
    ab = load_ab()
    calls = collections.Counter()

    def fake_ops(cc, script, startup_script):
        tree = "change" if cc is ab.cliffcalc else "parent"
        names = ["old", "new", "last"] if tree == "change" else ["old", "last"]
        return {name: (lambda item, key=(tree, name): calls.update([key]), [None]) for name in names}

    monkeypatch.setattr(ab, "micro_ops", fake_ops)
    monkeypatch.setattr(ab, "MIN_PASS_S", 0.0)  # one pass a round
    monkeypatch.setattr(ab, "calculator_script", lambda: None)
    ab.compare_times(object(), 2, "unused")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[3:]] == ["old", "new", "last"]
    assert lines[4] == f"{'new':<22}skipped: the parent has no such op"
    # a warm-up round and two timed ones
    assert calls == {(tree, name): 3 for tree in ("parent", "change") for name in ("old", "last")}

    from cliffcalc import Multivector

    mv = Multivector({(1,): 2.0, (2, 3): -1.0})
    assert ab.stored_terms(mv) == ([0b1, 0b110], [2.0, -1.0])

    class DictStored:  # a tree that stored a value's terms as one dict
        _terms = {0b1: 2.0}

    assert ab.stored_terms(DictStored()) == ({0b1: 2.0},)


def test_ab_prints_the_quartiles_of_the_per_round_ratio(monkeypatch, capsys):
    """Beside each op's median change/parent ratio, ``compare_times`` prints
    the first and third quartiles of the ratios of its rounds."""
    import statistics

    ab = load_ab()
    parent = [1.0, 2.0, 4.0, 1.0, 5.0]
    change = [0.9, 2.0, 2.0, 1.2, 4.0]
    ratios = [c / p for p, c in zip(parent, change)]
    monkeypatch.setattr(ab, "micro_ops", lambda cc, script, startup_script: {"op": (None, [None])})
    monkeypatch.setattr(ab, "calculator_script", lambda: None)
    monkeypatch.setattr(ab, "interleaved_rounds", lambda rows, *args, **kwargs: {
        ("parent", "op"): [t * 1e-6 for t in parent], ("change", "op"): [t * 1e-6 for t in change]})
    ab.compare_times(object(), len(parent), "unused")
    header, _, row = capsys.readouterr().out.splitlines()[1:]
    low, _, high = statistics.quantiles(ratios, n=4)
    assert header.split()[-2:] == ["q1-q3", "faster"]
    assert row.split()[-3:] == [f"{statistics.median(ratios):.3f}", f"{low:.3f}-{high:.3f}", "3/5"]
    assert low < statistics.median(ratios) < high
    assert ab.quartiles([0.97]) == (0.97, 0.97)
