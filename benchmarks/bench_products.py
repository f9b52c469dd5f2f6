#!/usr/bin/env python3
"""Benchmark the geometric product across kernel backends.

Builds deterministic random multivectors of increasing term counts and times
the same product through the per-pair Python path and the packed numpy
kernel, end to end, plus the kernel call alone on arrays built from the
multivectors' blade keys.  Run from the repository root:

    python benchmarks/bench_products.py
    python benchmarks/bench_products.py --sizes 16,64,256 --repeats 7
"""

import argparse
import time

import numpy as np

from cliffcalc import Signature, geometric_product
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


def time_backend(backend: str, a, b, repeats: int) -> float:
    previous = kernels.set_backend(backend)
    try:
        return best_time(lambda: geometric_product(a, b, SIG), repeats)
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
    parser.add_argument("--sizes", default="8,32,128,512", help="comma-separated term counts")
    parser.add_argument("--repeats", type=int, default=9, help="timed repetitions per cell")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = ("python", "numpy")

    header = f"{'terms':>7} {'pairs':>9}" + "".join(f"{c:>14}" for c in (*backends, "kernel"))
    print(header)
    print("-" * len(header))
    for size in sizes:
        a = build(size, seed=2 * size)
        b = build(size, seed=2 * size + 1)
        pairs = a.num_terms() * b.num_terms()
        row = f"{a.num_terms():>7} {pairs:>9}"
        timings = {backend: time_backend(backend, a, b, args.repeats) for backend in backends}
        timings["kernel"] = time_kernel(a, b, args.repeats)
        row += "".join(f"{t * 1e6:>12.1f}us" for t in timings.values())
        row += f"   numpy {timings['python'] / timings['numpy']:.1f}x vs python"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
