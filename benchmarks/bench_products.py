#!/usr/bin/env python3
"""Benchmark the products across backends, the per-pair/packed cutoffs and the slots rule.

The size sweep builds deterministic random multivectors of increasing term
counts and times the geometric product through the per-pair Python path and
the packed numpy kernel, end to end, plus the kernel call alone on arrays
built from the multivectors' blade keys, timed warm: the mean of several
calls after an untimed one.  The left contraction and the wedge
are timed end to end under both backends too; under ``numpy`` they take the
per-pair path up to ``products._SMALL_CONTRACTION_PAIRS`` and
``products._SMALL_WEDGE_PAIRS`` pairs and the kernel above.  Each repeat
times every column once, in a shuffled order, and a cell is the median over
the repeats, timed by ``ab.interleaved_rounds``, the timer both benchmark
scripts share; a column's backend is set before its call is timed.

``--cutoffs`` instead times ``products._per_pair`` against the packed path
(``kernels.packed_product``, its terms wrapped as ``products._binary`` wraps
them) for the four products, under four signatures, in
dimensions 6 and 10, at 49-640 term pairs of mixed-grade operands.  A cell is
the median over 12 operand pairs of per-pair time over packed time, each the
best of the repeats, the two paths interleaved; below 1 the per-pair path is
ahead.  ``products``' three cutoffs are read off this grid.

``--slots`` instead times, under the python backend, ``products._per_pair``
for the four products and ``+`` with every sum in slots against every sum
sorted, by setting the two constants of ``multivector.dense_slots``, at
widths 3, 4, 6, 8 and 10 and 16 down to 1/4 slots per term pair (per term
for ``+``).  A cell is the median over 8 operand pairs of slots time over
sort time, each the best of the repeats, the two interleaved; below 1 slots
are ahead.  ``multivector._SLOTS_PER_TERM`` and ``_FEW_TERMS`` are read off
this grid.  Run from the repository root:

    python benchmarks/bench_products.py
    python benchmarks/bench_products.py --sizes 16,64,256 --repeats 7
    python benchmarks/bench_products.py --json BENCH_products.json
    python benchmarks/bench_products.py --cutoffs --repeats 25 --json BENCH_products.json
    python benchmarks/bench_products.py --slots --repeats 25 --json BENCH_products.json

``--json PATH`` also writes the run, in microseconds per cell, with the
machine and the Python and NumPy versions, into PATH: the size sweep under
``rows``, the cutoff grid under ``cutoffs``, the slots grid under ``slots``.
Other keys already in the file are kept.
"""

import argparse
import json
import math
import os
import platform
import statistics
import time

import numpy as np

from cliffcalc import (Multivector, Signature, euclidean, geometric_product, grassmann, left_contraction,
                       wedge)
from cliffcalc import kernels, multivector, products
from cliffcalc.rand import RandomSpec, random_multivector

from ab import interleaved_rounds

SIG = Signature(6, 4)

#: (name, signature) of the cutoff grid; the wedge is timed under the null
#: metric alone, the one it takes.
CUTOFF_SIGNATURES = (("euclidean", euclidean()), ("Cl(3,1)", Signature(3, 1)),
                     ("Cl(6,4)", Signature(6, 4)), ("grassmann", grassmann()))
#: (name, filter mode, takes a signature) of the four products.
CUTOFF_PRODUCTS = (("geometric", kernels.FILTER_NONE, True), ("wedge", kernels.FILTER_NONE, False),
                   ("left", kernels.FILTER_LEFT, True), ("right", kernels.FILTER_RIGHT, True))
#: Operand term counts of the cutoff grid: 49 to 640 pairs.
CUTOFF_SHAPES = ((7, 7), (9, 9), (10, 10), (12, 12), (14, 14), (16, 16), (18, 18),
                 (20, 20), (22, 22), (24, 24), (20, 32))
CUTOFF_OPERANDS = 12
#: Kernel calls timed per cell of the size sweep's ``kernel`` column, after
#: an untimed one: a single call just after another column reads cold.
KERNEL_CALLS = 8
#: Each ``products`` cutoff and the products it chooses the path of.
CUTOFF_COVERS = (("_SMALL_PAIRS", ("geometric",)), ("_SMALL_WEDGE_PAIRS", ("wedge",)),
                 ("_SMALL_CONTRACTION_PAIRS", ("left", "right")))
#: Largest generator index of the slots grid's operands: the sign table's
#: widths and two of the wide per-pair loop's.
SLOT_WIDTHS = (3, 4, 6, 8, 10)
#: Slots per term that the slots grid aims its operand sizes at.
SLOTS_PER_TERM = (16, 8, 4, 2, 1, 0.5, 0.25)
SLOT_OPERANDS = 8
#: The signature of the slots grid's products: no generator up to 10 squares
#: to 0, so the geometric product keeps every pair.
SLOT_SIG = Signature(6, 4)


def build(num_terms: int, seed: int):
    return random_multivector(
        RandomSpec(
            dimension=10,
            max_grade=5,
            num_terms=num_terms,
            include_fewer=True,
            seed=seed,
        )
    )


def sweep_columns(a, b) -> dict:
    """The size sweep's rows for ``interleaved_rounds``: name -> (call, items).

    ``kernel`` is ``KERNEL_CALLS`` ``kernels.pair_table`` calls, each as
    ``kernels.packed_product`` makes it, on arrays built once by
    ``kernels._operands``; :func:`before_column` makes one more ahead of
    them, outside the time, so that the cell reads the kernel warm.
    """
    pos, neg = kernels.region_masks(SIG)
    kernel_args = (*kernels._operands(a._keys, a._coeffs), *kernels._operands(b._keys, b._coeffs),
                   np.uint64(pos), np.uint64(neg), max(a.max_index(), b.max_index()), kernels.FILTER_NONE)
    pair = [(a, b)]
    geometric = (lambda ab: geometric_product(*ab, SIG), pair)
    lc = (lambda ab: left_contraction(*ab, SIG), pair)
    wedge_ = (lambda ab: wedge(*ab), pair)
    return {"python": geometric, "numpy": geometric,
            "kernel": (lambda args: kernels.pair_table(*args), [kernel_args] * KERNEL_CALLS),
            "lc python": lc, "lc numpy": lc, "wedge python": wedge_, "wedge numpy": wedge_}


def cutoff_ratio(a, b, sig, filter_mode, repeats: int) -> float:
    """Per-pair over packed time of one product, best of ``repeats`` each."""
    per_pair = packed = float("inf")
    width = max(a.max_index(), b.max_index())
    def packed_path():
        return Multivector._wrap(*kernels.packed_product(a._keys, a._coeffs, b._keys, b._coeffs, sig,
                                                         filter_mode, width))

    products._per_pair(a, b, sig, filter_mode, width)
    packed_path()
    for _ in range(repeats):
        start = time.perf_counter()
        products._per_pair(a, b, sig, filter_mode, width)
        middle = time.perf_counter()
        packed_path()
        per_pair = min(per_pair, middle - start)
        packed = min(packed, time.perf_counter() - middle)
    return per_pair / packed


def cutoff_grid(repeats: int) -> dict:
    """The cutoff grid: a row per cell, and per product and pair count the
    median ratio over its signatures and dimensions."""
    rows = []
    for dimension in (6, 10):
        for na, nb in CUTOFF_SHAPES:
            operands = [
                tuple(random_multivector(RandomSpec(dimension=dimension, max_grade=min(5, dimension),
                                                    num_terms=n, include_fewer=True,
                                                    seed=1000 * dimension + 10 * k + side))
                      for side, n in enumerate((na, nb)))
                for k in range(CUTOFF_OPERANDS)
            ]
            for product, filter_mode, signed in CUTOFF_PRODUCTS:
                for name, sig in CUTOFF_SIGNATURES if signed else ((None, grassmann()),):
                    ratios = [cutoff_ratio(a, b, sig, filter_mode, repeats) for a, b in operands]
                    rows.append({"product": product, "signature": name, "dimension": dimension,
                                 "pairs": na * nb, "ratio": round(float(np.median(ratios)), 3)})
                    print(f"{product:>10} {name or '-':>10} {dimension:>4} {na * nb:>6}"
                          f" {rows[-1]['ratio']:>8.2f}")
    median = {
        product: {
            str(pairs): round(float(np.median([row["ratio"] for row in rows
                                               if row["product"] == product and row["pairs"] == pairs])), 3)
            for pairs in sorted({row["pairs"] for row in rows})
        }
        for product, _, _ in CUTOFF_PRODUCTS
    }
    print("median per-pair/packed over signatures and dimensions")
    print(f"{'pairs':>10}" + "".join(f"{product:>11}" for product in median))
    for pairs in median["geometric"]:
        print(f"{pairs:>10}" + "".join(f"{median[product][pairs]:>11.2f}" for product in median))
    # each cutoff's reading: the largest pair count through which the median
    # of every product it covers stays below 1
    ahead = {}
    for cutoff, covered in CUTOFF_COVERS:
        ahead[cutoff] = 0
        for pairs in median["geometric"]:
            if any(median[product][pairs] >= 1 for product in covered):
                break
            ahead[cutoff] = int(pairs)
        print(f"per-pair ahead through {ahead[cutoff]} pairs: {cutoff}"
              f" (now {getattr(products, cutoff)})")
    return {
        "timing": f"per-pair over packed time, each the best of {repeats} interleaved calls "
                  f"after one warm-up, median of {CUTOFF_OPERANDS} operand pairs",
        "operands": "random_multivector, include_fewer=True, max_grade min(5, dimension), "
                    "coefficients -5..5",
        "rows": rows,
        "median": median,
        "per_pair_ahead_through": ahead,
    }


def slot_operands(width: int, terms: int, seed: int):
    """Two operands of about ``terms`` terms between them, or ``terms`` term
    pairs, each holding e_width, so that the keys' range is ``1 << width``."""
    blades = 2 ** width - 1
    if terms < 0:  # a sum: its operands' terms add up
        na = nb = max(1, min(blades, -terms // 2))
    else:
        na = max(1, min(blades, math.isqrt(terms)))
        nb = max(1, min(blades, round(terms / na)))
    pair = []
    for side, n in enumerate((na, nb)):
        mv = random_multivector(RandomSpec(dimension=width, max_grade=min(5, width), num_terms=n,
                                           include_fewer=True, seed=10_000 * width + 10 * seed + side))
        if mv.coefficient((width,)) == 0.0:
            mv = mv + Multivector({(width,): 1.0})
        pair.append(mv)
    return pair


def slot_ratio(call, repeats: int) -> float:
    """Time of ``call()`` with every sum in slots over its time with every sum
    through ``multivector.sum_terms``, best of ``repeats`` each, interleaved:
    the two constants of ``multivector.dense_slots`` are set so that its rule
    always or never reads slots."""
    rules = {"slots": (1 << 20, -1), "sort": (0, -1)}
    times = {}
    for name in tuple(rules) * (repeats + 1):
        multivector._SLOTS_PER_TERM, multivector._FEW_TERMS = rules[name]
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times[name] = min(times.get(name, float("inf")), elapsed)
    return times["slots"] / times["sort"]


def slots_grid(repeats: int) -> dict:
    """The slots grid: per product (and ``+``), width and aimed slots per
    term, the median over operand pairs of slots over sort time, with the
    median term pairs (``+``: terms) per slot of its operands."""
    previous_backend = kernels.set_backend("python")
    rule = multivector._SLOTS_PER_TERM, multivector._FEW_TERMS
    sums = (("sum", None, False),)
    rows = []
    try:
        for width in SLOT_WIDTHS:
            for per_term in SLOTS_PER_TERM:
                terms = round((1 << width) / per_term)
                for product, filter_mode, signed in CUTOFF_PRODUCTS + sums:
                    ratios, densities = [], []
                    for k in range(SLOT_OPERANDS):
                        a, b = slot_operands(width, -terms if product == "sum" else terms, k)
                        if product == "sum":
                            call, pairs = (lambda: a + b), a.num_terms() + b.num_terms()
                        else:
                            sig = SLOT_SIG if signed else grassmann()
                            call = (lambda: products._per_pair(a, b, sig, filter_mode, width))
                            pairs = a.num_terms() * b.num_terms()
                        ratios.append(slot_ratio(call, repeats))
                        densities.append(pairs / (1 << width))
                    rows.append({"product": product, "width": width,
                                 "slots_per_term": round(1 / float(np.median(densities)), 3),
                                 "ratio": round(float(np.median(ratios)), 3)})
                    print(f"{product:>10} {width:>6} {rows[-1]['slots_per_term']:>10.2f}"
                          f" {rows[-1]['ratio']:>8.2f}")
    finally:
        multivector._SLOTS_PER_TERM, multivector._FEW_TERMS = rule
        kernels.set_backend(previous_backend)
    # per product, the most slots per term at which slots are still ahead at
    # that width and every denser cell of it
    ahead = {}
    for product in (name for name, _, _ in CUTOFF_PRODUCTS + sums):
        ahead[product] = {}
        for width in SLOT_WIDTHS:
            cells = sorted((row["slots_per_term"], row["ratio"]) for row in rows
                           if row["product"] == product and row["width"] == width)
            reach = 0.0
            for per_term, ratio in cells:
                if ratio >= 1:
                    break
                reach = per_term
            ahead[product][str(width)] = reach
    print("slots ahead through this many slots per term (0: never)")
    print(f"{'width':>10}" + "".join(f"{product:>11}" for product in ahead))
    for width in SLOT_WIDTHS:
        print(f"{width:>10}" + "".join(f"{ahead[product][str(width)]:>11.2f}" for product in ahead))
    print(f"multivector._SLOTS_PER_TERM (now {multivector._SLOTS_PER_TERM}),"
          f" _FEW_TERMS (now {multivector._FEW_TERMS})")
    return {
        "timing": f"slots over sort time of products._per_pair (python backend) and of +, each the "
                  f"best of {repeats} interleaved calls after one warm-up, median of "
                  f"{SLOT_OPERANDS} operand pairs",
        "operands": "random_multivector, include_fewer=True, max_grade min(5, width), e_width "
                    f"added where missing, Cl({SLOT_SIG.p},{SLOT_SIG.q}); slots_per_term is the "
                    "median over the operand pairs of 1 << width over term pairs (+: terms)",
        "rows": rows,
        "slots_ahead_through": ahead,
    }


def size_sweep(sizes, repeats: int) -> dict:
    header = None
    rows = []
    for size in sizes:
        a = build(size, seed=2 * size)
        b = build(size, seed=2 * size + 1)
        columns = sweep_columns(a, b)
        previous = kernels.active_backend()

        def before_column(name):
            # a column named "... python" runs under that backend, the rest
            # under numpy; the kernel column's calls follow a warm-up call
            kernels.set_backend("python" if name.endswith("python") else "numpy")
            if name == "kernel":
                call, items = columns[name]
                call(items[0])

        try:
            rounds = interleaved_rounds(columns, repeats, before=before_column)
        finally:
            kernels.set_backend(previous)
        timings = {name: statistics.median(t) for name, t in rounds.items()}
        if header is None:
            header = f"{'terms':>7} {'pairs':>9}" + "".join(f"{c:>14}" for c in timings)
            print(header)
            print("-" * len(header))
        pairs = a.num_terms() * b.num_terms()
        row = f"{a.num_terms():>7} {pairs:>9}"
        row += "".join(f"{t * 1e6:>12.1f}us" for t in timings.values())
        row += f"   numpy {timings['python'] / timings['numpy']:.1f}x vs python"
        print(row)
        rows.append({"terms": a.num_terms(), "pairs": pairs,
                     "us": {name: round(t * 1e6, 1) for name, t in timings.items()}})
    return {
        "signature": f"Cl({SIG.p},{SIG.q})",
        "dimension": 10,
        "repeats": repeats,
        "timing": "median of the repeats after one warm-up round; each repeat times every "
                  "column once, in a seeded shuffled order, microseconds; the kernel column "
                  f"is the mean of {KERNEL_CALLS} calls after an untimed one",
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,24,32,128,512", help="comma-separated term counts")
    parser.add_argument("--repeats", type=int, default=25, help="timed repetitions per cell")
    parser.add_argument("--cutoffs", action="store_true",
                        help="time the per-pair/packed cutoff grid instead of the size sweep")
    parser.add_argument("--slots", action="store_true",
                        help="time the per-pair products' and +'s slots against the sort instead")
    parser.add_argument("--json", metavar="PATH", help="also write the run as JSON into PATH")
    args = parser.parse_args()

    if args.cutoffs:
        update = {"cutoffs": cutoff_grid(args.repeats)}
    elif args.slots:
        update = {"slots": slots_grid(args.repeats)}
    else:
        update = size_sweep([int(s) for s in args.sizes.split(",")], args.repeats)
    if args.json:
        record = {"benchmark": "bench_products"}
        if os.path.exists(args.json):
            with open(args.json) as existing:
                record = json.load(existing)
        record.update(update)
        record.update(
            machine={"platform": platform.platform(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            python=platform.python_version(),
            numpy=np.__version__,
        )
        with open(args.json, "w") as out:
            json.dump(record, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
