"""Smoke runs of the benchmark scripts at toy sizes.

The scripts reach into private names of the library (``products._per_pair``,
``products._packed``, the ``_SMALL_*`` cutoffs, ``kernels.pair_table``,
``kernels.region_masks``, ``kernels.FILTER_*``), so a refactor can break them
without any other test noticing.  Each run checks the exit code and the
header the script prints; the timings themselves are not checked.
``benchmarks/ab.py`` compares the working tree with ``HEAD``, which it
exports with ``git archive``, so that run needs the repository's history.  The sweep
also writes its rows into a copy of ``BENCH_products.json`` with ``--json``,
which must keep the file's other keys.
"""

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
    (("benchmarks/bench_calc.py", "--lines", "20", "--repeats", "1"),
     ("20 lines,", "layer", "tokenize", "render", "run_command", "literal", "command",
      "start-up")),
], ids=["sweep", "cutoffs", "calc"])
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


def has_history() -> bool:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not has_history(), reason="needs a git checkout to export HEAD from")
def test_ab_times_the_working_tree_against_a_revision():
    out = run_script("benchmarks/ab.py", "--parent", "HEAD", "--repeats", "1")
    assert "parent HEAD against the working tree" in out
    for text in ("change/parent", "faster", "1x1 Cl(3,1)", "9x9 Cl(3,1)", "4x4 wedge dim 12",
                 "criterion 7", "high_index 45x45", "high_index 45x45 _|", "high_index 45x45 ^",
                 "512x512 dim 10", "calc line", "4+4 dim 6", "high_index 45+45", "512+512 dim 10",
                 "parse 6 terms"):
        assert text in out
    # one row per op, each ending in its rounds won of the one timed
    assert sum(line.endswith(("0/1", "1/1")) for line in out.splitlines()) == 15
