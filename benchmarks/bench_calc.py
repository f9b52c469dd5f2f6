#!/usr/bin/env python3
"""Time the calculator's layers, one at a time, on a seeded script.

Builds a calculator script from ``random_multivector`` literals (dimension
12, 2-6 terms, grade <= 3) and binary products, powers and ``grades`` calls
of six bound variables, then prints the best-of-N microseconds per line for
each layer on its own: ``tokenize``, ``parse_expr`` (which includes
``tokenize``), ``eval_expr`` on the parsed trees, and ``render`` of the
values.  A second table times whole lines through ``run_command`` by kind:
literal assignments, printed binary products, powers, ``grades`` calls, and
``:signature``/``:basissep`` commands.  Run from the repository root:

    python benchmarks/bench_calc.py
    python benchmarks/bench_calc.py --lines 400 --repeats 15 --seed 7
"""

import argparse
import random
import time

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


def best_per_item(call, items, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one pass of ``call`` over ``items``,
    divided by the number of items."""
    for item in items:  # warmup
        call(item)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            call(item)
        best = min(best, time.perf_counter() - start)
    return best / len(items)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=200, help="script lines")
    parser.add_argument("--repeats", type=int, default=9, help="timed passes per layer")
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

    chars = sum(map(len, lines)) / len(lines)
    print(f"{len(lines)} lines, {chars:.1f} chars per line, {len(values)} rendered values")
    print(f"{'layer':<12}{'us each':>10}")
    print("-" * 22)
    layers = (
        ("tokenize", tokenize, lines),
        ("parse_expr", parse_expr, lines),
        ("eval_expr", lambda tree: eval_expr(tree, session), trees),
        ("render", render, values),
    )
    for name, call, items in layers:
        print(f"{name:<12}{best_per_item(call, items, args.repeats) * 1e6:>10.2f}")

    # whole lines: a literal is assigned, as in a script, to a name no other
    # line reads; commands run in a session of their own
    by_kind = {kind: [] for kind in KINDS}
    for kind, line in kinds_and_lines:
        by_kind[kind].append(f"t = {line}" if kind == "literal" else line)
    groups = [(kind, session, by_kind[kind]) for kind in KINDS]
    groups.append(("command", Session(), list(COMMANDS)))
    print()
    print(f"{'run_command':<12}{'lines':>6}{'us each':>10}")
    print("-" * 28)
    for kind, kind_session, items in groups:
        per_line = best_per_item(lambda line: run_command(line, kind_session), items, args.repeats)
        print(f"{kind:<12}{len(items):>6}{per_line * 1e6:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
