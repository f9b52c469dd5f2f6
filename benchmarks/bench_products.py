#!/usr/bin/env python3
"""Benchmark the geometric product, the left contraction and the wedge across backends.

Builds deterministic random multivectors of increasing term counts and times
the geometric product through the per-pair Python path and the packed numpy
kernel, end to end, plus the kernel call alone on arrays built from the
multivectors' blade keys.  The left contraction and the wedge are timed end
to end under both backends too; under ``numpy`` they take the per-pair path
up to ``products._SMALL_CONTRACTION_PAIRS`` and ``products._SMALL_WEDGE_PAIRS``
pairs and the kernel above.  Run from the repository root:

    python benchmarks/bench_products.py
    python benchmarks/bench_products.py --sizes 16,64,256 --repeats 7
    python benchmarks/bench_products.py --json BENCH_products.json

``--json PATH`` also writes the sweep, in microseconds per cell, with the
machine and the Python and NumPy versions.
"""

import argparse
import json
import os
import platform
import time

import numpy as np

from cliffcalc import Signature, geometric_product, left_contraction, wedge
from cliffcalc import kernels
from cliffcalc.rand import RandomSpec, random_multivector

SIG = Signature(6, 4)


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


def best_time(call, repeats: int) -> float:
    call()  # warmup: caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def time_backend(backend: str, product, a, b, repeats: int) -> float:
    previous = kernels.set_backend(backend)
    try:
        return best_time(lambda: product(a, b, SIG), repeats)
    finally:
        kernels.set_backend(previous)


def arrays(mv):
    """(keys, coeffs) as the packed path builds them from the blade-key dict."""
    return np.fromiter(mv._terms, np.uint64), np.fromiter(mv._terms.values(), np.float64)


def time_kernel(a, b, repeats: int) -> float:
    keys_a, coeffs_a = arrays(a)
    keys_b, coeffs_b = arrays(b)
    pos, neg = (np.uint64(m) for m in kernels.region_masks(SIG))
    return best_time(
        lambda: kernels.pair_table(
            keys_a, coeffs_a, keys_b, coeffs_b, pos, neg, kernels.FILTER_NONE
        ),
        repeats,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,24,32,128,512", help="comma-separated term counts")
    parser.add_argument("--repeats", type=int, default=9, help="timed repetitions per cell")
    parser.add_argument("--json", metavar="PATH", help="also write the sweep as JSON to PATH")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = ("python", "numpy")

    filtered = {"lc": left_contraction, "wedge": lambda a, b, _sig: wedge(a, b)}
    columns = (*backends, "kernel",
               *(f"{name} {backend}" for name in filtered for backend in backends))
    header = f"{'terms':>7} {'pairs':>9}" + "".join(f"{c:>14}" for c in columns)
    print(header)
    print("-" * len(header))
    rows = []
    for size in sizes:
        a = build(size, seed=2 * size)
        b = build(size, seed=2 * size + 1)
        pairs = a.num_terms() * b.num_terms()
        row = f"{a.num_terms():>7} {pairs:>9}"
        timings = {
            backend: time_backend(backend, geometric_product, a, b, args.repeats)
            for backend in backends
        }
        timings["kernel"] = time_kernel(a, b, args.repeats)
        for name, product in filtered.items():
            for backend in backends:
                timings[f"{name} {backend}"] = time_backend(backend, product, a, b, args.repeats)
        row += "".join(f"{t * 1e6:>12.1f}us" for t in timings.values())
        row += f"   numpy {timings['python'] / timings['numpy']:.1f}x vs python"
        print(row)
        rows.append({"terms": a.num_terms(), "pairs": pairs,
                     "us": {name: round(t * 1e6, 1) for name, t in timings.items()}})
    if args.json:
        record = {
            "benchmark": "bench_products",
            "signature": f"Cl({SIG.p},{SIG.q})",
            "dimension": 10,
            "repeats": args.repeats,
            "timing": "best of the repeats after one warm-up call, microseconds",
            "machine": {"platform": platform.platform(), "machine": platform.machine(),
                        "cpus": os.cpu_count()},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "rows": rows,
        }
        with open(args.json, "w") as out:
            json.dump(record, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
