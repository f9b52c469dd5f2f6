"""The four bilinear products and integer powers.

All metric-dependent operations take the :class:`~cliffcalc.metric.Signature`
explicitly; only the REPL holds one as ambient state.  The wedge product
never consults a metric.

Contractions are computed term-wise with a grade filter: for blades a of
grade r and b of grade s, the geometric product a b is homogeneous, so
keeping exactly the pairs whose product has grade s - r (left) or r - s
(right) equals the definition as a double sum of grade projections.

Dispatch: both paths work on blade keys (see :mod:`cliffcalc.blade`).
When every index fits in 1..64 and the product has more than
``_SMALL_PAIRS`` term pairs, the keys go into uint64 arrays for the packed
numpy kernel in :mod:`cliffcalc.kernels`; smaller products, blades with
larger indices and every product under ``CLIFFCALC_BACKEND=python`` loop
over the pairs on Python ints.
"""

from __future__ import annotations

import numpy as np

from . import kernels
# perfbench/spans.py times the per-pair calls through these two names
from .blade import mask_product as blade_product, mask_wedge as blade_wedge
from .metric import Signature, signature_masks
from .multivector import Multivector, from_scalar

# Products of at most this many term pairs take the per-pair path.  Timed one
# product at a time in dimension 6 (2 CPUs, NumPy 2.4), the per-pair path on
# blade keys breaks even with the packed kernel at 48-64 pairs for the
# geometric product and ~81 for the wedge; contractions, whose filter skips
# most pairs before the sign, stay cheaper per pair beyond 81.  On perfbench
# calc_script (operands of 2-6 terms, 8 s runs) a cutoff of 48 gave a median
# 23.4k ops/s against 22.3k for 32 and 23.1k for 64 over 3 seeds, and 23.0k
# against 18.0k for 16 over 4 other seeds.  small_identities does not tell
# them apart (6.7k-6.9k for 16-64): 98% of its products have over 64 pairs.
_SMALL_PAIRS = 48


def geometric_product(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """The Clifford product of two multivectors under ``sig``."""
    return _binary(a, b, sig, kernels.FILTER_NONE)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; signature-free, zero whenever blades overlap."""
    return _binary(a, b, None, kernels.FILTER_NONE)


def left_contraction(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """a ⌋ b: keeps the parts of the product lowering b's grade by a's."""
    return _binary(a, b, sig, kernels.FILTER_LEFT)


def right_contraction(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """a ⌊ b: keeps the parts of the product lowering a's grade by b's."""
    return _binary(a, b, sig, kernels.FILTER_RIGHT)


def power(a: Multivector, k: int, sig: Signature) -> Multivector:
    """Repeated geometric product; k = 0 gives the unit scalar."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"exponent must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    result = from_scalar(1.0)
    for _ in range(k):
        result = geometric_product(result, a, sig)
    return result


def _binary(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    if a.is_zero() or b.is_zero():
        return Multivector._wrap({})
    backend = kernels.active_backend()
    if (
        backend != "python"
        and a.num_terms() * b.num_terms() > _SMALL_PAIRS
        and a.max_index() <= kernels.PACK_LIMIT
        and b.max_index() <= kernels.PACK_LIMIT
    ):
        return _packed(a, b, sig, filter_mode)
    return _per_pair(a, b, sig, filter_mode)


def _per_pair(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    if sig is not None:
        pos, neg = signature_masks(sig, max(a.max_index(), b.max_index()))
    acc: dict[int, float] = {}
    for ka, ca in a._terms.items():
        for kb, cb in b._terms.items():
            # left keeps a ⊆ b and right keeps b ⊆ a: exactly the pairs whose
            # product has grade |b| - |a| or |a| - |b|
            if filter_mode == kernels.FILTER_LEFT:
                if ka & ~kb:
                    continue
            elif filter_mode == kernels.FILTER_RIGHT:
                if kb & ~ka:
                    continue
            if sig is None:
                sign, key = blade_wedge(ka, kb)
            else:
                sign, key = blade_product(ka, kb, pos, neg)
            if sign == 0:
                continue
            value = acc.get(key, 0.0) + ca * cb * sign
            if value == 0.0:
                acc.pop(key, None)
            else:
                acc[key] = value
    return Multivector._wrap(dict(sorted(acc.items())))


def _packed(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    pos, neg = kernels.region_masks(sig) if sig is not None else (0, 0)
    keys, coeffs = kernels.pair_table(
        np.fromiter(a._terms, np.uint64, a.num_terms()),
        np.fromiter(a._terms.values(), np.float64, a.num_terms()),
        np.fromiter(b._terms, np.uint64, b.num_terms()),
        np.fromiter(b._terms.values(), np.float64, b.num_terms()),
        np.uint64(pos), np.uint64(neg), filter_mode,
    )
    # kernel keys come out ascending, which is canonical order already
    return Multivector._wrap(dict(zip(keys.tolist(), coeffs.tolist())))
