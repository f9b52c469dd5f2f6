#!/usr/bin/env python3
"""Time the calculator's layers, one at a time, on a seeded script.

Builds a calculator script from ``random_multivector`` literals (dimension
12, 2-6 terms, grade <= 3) and binary products, powers and ``grades`` calls
of six bound variables, then prints the microseconds per line for each layer
on its own: ``tokenize``, ``parse_expr`` (which includes ``tokenize``),
``eval_expr`` on the parsed trees, and ``render`` of the values.  A second
table times whole lines through ``run_command`` by kind: literal
assignments, printed binary products, powers, ``grades`` calls, and
``:signature``/``:basissep`` commands.  Each round times one pass of every
row over its lines, the rows in a seeded shuffled order, and a cell is the
median over the rounds, from ``interleaved_medians``, the timer
``bench_products.py`` imports too (``ab.py`` takes each round's time from
``interleaved_rounds`` beneath it).  A third table, "start-up", times fresh
interpreters the same way, one of each per round: ``python -c pass``,
``python -c "import cliffcalc"`` and a two-line ``cliffcalc --script``.
Run from the repository root:

    python benchmarks/bench_calc.py
    python benchmarks/bench_calc.py --lines 400 --repeats 15 --seed 7
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

import cliffcalc
from cliffcalc import Signature, render
from cliffcalc.exprparse import parse_expr, tokenize
from cliffcalc.multivector import Multivector
from cliffcalc.rand import RandomSpec, random_multivector
from cliffcalc.repl import Session, eval_expr, run_command

NAMES = tuple(f"v{i}" for i in range(6))
OPERATORS = ("*", "^", "_|", "|_")
KINDS = ("literal", "binary", "power", "grades")
COMMANDS = (":signature 3 1", ":basissep ,", ":signature inf", ":basissep",
            ":signature 6 4", ":signature 4")


def literal(mv) -> str:
    """Input text for an integer-coefficient multivector: ``e_12`` when every
    index is a single digit, ``e[2,11]`` otherwise.  Written here rather than
    by ``render`` so the script stays the same when rendering changes."""
    parts = []
    for blade, c in mv.terms():
        text = f"{'-' if c < 0 else '+'} {int(abs(c))}"
        if blade and blade[-1] <= 9:
            text += "e_" + "".join(map(str, blade))
        elif blade:
            text += "e[" + ",".join(map(str, blade)) + "]"
        parts.append(text)
    return " ".join(parts)


def script(lines: int, seed: int) -> list[tuple[str, str]]:
    """(kind, line) pairs of expression lines: about a quarter literals, the
    rest operations."""
    rng = random.Random(seed)

    def new_literal():
        return literal(random_multivector(RandomSpec(
            dimension=12, max_grade=3, num_terms=rng.randint(2, 6), include_fewer=True,
            seed=rng.getrandbits(63))))

    out = []
    for _ in range(lines):
        v, u = rng.choice(NAMES), rng.choice(NAMES)
        kind = rng.choices(KINDS, (24, 88, 12, 16))[0]
        if kind == "literal":
            out.append((kind, new_literal()))
        elif kind == "binary":
            out.append((kind, f"{v} {rng.choice(OPERATORS)} {u}"))
        elif kind == "power":
            out.append((kind, f"{v} ** {rng.choice((2, 3))}"))
        else:
            out.append((kind, f"grades({v} * {u})"))
    return out


def interleaved_medians(rows: dict, repeats: int, before=lambda name: None) -> dict:
    """Median seconds per item of each row over ``repeats`` rounds after a
    warm-up round; a row is (call, items).  The benchmark scripts time
    through this function, or through :func:`interleaved_rounds` where they
    need each round's time."""
    return {name: statistics.median(t) for name, t in interleaved_rounds(rows, repeats, before).items()}


def interleaved_rounds(rows: dict, repeats: int, before=lambda name: None) -> dict:
    """Seconds per item of each row in each of ``repeats`` rounds, after a
    warm-up round that is dropped; a row is (call, items).

    Each round times one pass of every row over its items, so a slow spell
    of the machine reaches all the rows alike, in a seeded shuffled order,
    so that no row always follows the same one (the call before leaves the
    caches warm or cold).  ``before(name)`` runs ahead of each pass of that
    row, outside its time.
    """
    times = {name: [] for name in rows}
    order = list(rows.items())
    shuffle = random.Random(0).shuffle
    for _ in range(repeats + 1):
        shuffle(order)
        for name, (call, items) in order:
            before(name)
            start = time.perf_counter()
            for item in items:
                call(item)
            times[name].append((time.perf_counter() - start) / len(items))
    return {name: t[1:] for name, t in times.items()}


def startup_medians(repeats: int) -> dict:
    """Median seconds of a fresh interpreter that does nothing, imports
    cliffcalc, or runs a two-line calculator script, over ``repeats`` rounds
    of one of each.  The interpreters import the cliffcalc this script does."""
    src = os.path.dirname(os.path.dirname(cliffcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "two_lines.cliff")
        with open(path, "w") as f:
            f.write("x = e_1 * e_2\nx * x\n")
        commands = {
            "python -c pass": ["-c", "pass"],
            "import cliffcalc": ["-c", "import cliffcalc"],
            "cliffcalc --script": ["-m", "cliffcalc", "--script", path],
        }

        def run(args):
            subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)

        return interleaved_medians({name: (run, [args]) for name, args in commands.items()}, repeats)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=200, help="script lines")
    parser.add_argument("--repeats", type=int, default=25, help="timed rounds")
    parser.add_argument("--seed", type=int, default=1, help="script seed")
    args = parser.parse_args()

    rng = random.Random(args.seed + 1)
    session = Session(signature=Signature(6, 4))
    for name in NAMES:
        session.variables[name] = random_multivector(RandomSpec(
            dimension=12, max_grade=3, num_terms=rng.randint(2, 6), seed=rng.getrandbits(63)))
    kinds_and_lines = script(args.lines, args.seed)
    lines = [line for _, line in kinds_and_lines]
    trees = [parse_expr(line) for line in lines]
    values = [value for value in (eval_expr(tree, session) for tree in trees)
              if isinstance(value, Multivector)]

    layers = {
        "tokenize": (tokenize, lines),
        "parse_expr": (parse_expr, lines),
        "eval_expr": (lambda tree: eval_expr(tree, session), trees),
        "render": (render, values),
    }
    # whole lines: a literal is assigned, as in a script, to a name no other
    # line reads; commands run in a session of their own
    by_kind = {kind: [] for kind in KINDS}
    for kind, line in kinds_and_lines:
        by_kind[kind].append(f"t = {line}" if kind == "literal" else line)
    kinds = {kind: (lambda line: run_command(line, session), by_kind[kind]) for kind in KINDS}
    command_session = Session()
    kinds["command"] = (lambda line: run_command(line, command_session), list(COMMANDS))
    medians = interleaved_medians({**layers, **kinds}, args.repeats)

    chars = sum(map(len, lines)) / len(lines)
    print(f"{len(lines)} lines, {chars:.1f} chars per line, {len(values)} rendered values")
    print(f"median of {args.repeats} interleaved rounds")
    print(f"{'layer':<12}{'us each':>10}")
    print("-" * 22)
    for name in layers:
        print(f"{name:<12}{medians[name] * 1e6:>10.2f}")
    print()
    print(f"{'run_command':<12}{'lines':>6}{'us each':>10}")
    print("-" * 28)
    for kind, (_, items) in kinds.items():
        print(f"{kind:<12}{len(items):>6}{medians[kind] * 1e6:>10.2f}")
    print()
    print(f"{'start-up':<20}{'ms each':>10}")
    print("-" * 30)
    for name, seconds in startup_medians(args.repeats).items():
        print(f"{name:<20}{seconds * 1e3:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
