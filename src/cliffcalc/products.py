"""The four bilinear products and integer powers.

All metric-dependent operations take the :class:`~cliffcalc.metric.Signature`
explicitly; only the REPL holds one as ambient state.  The wedge product
never consults a metric.

Contractions are computed term-wise with a grade filter: for blades a of
grade r and b of grade s, the geometric product a b is homogeneous, so
keeping exactly the pairs whose product has grade s - r (left) or r - s
(right) equals the definition as a double sum of grade projections.

Dispatch: when every index fits in 1..64 the work goes through the packed
numpy kernel in :mod:`cliffcalc.kernels`; tiny products, blades with larger
indices and every product under ``CLIFFCALC_BACKEND=python`` use the
per-pair merge in :mod:`cliffcalc.blade`.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .blade import Blade, blade_product, blade_wedge
from .metric import Signature
from .multivector import Multivector, _in_canonical_order, from_scalar

# Products of at most this many term pairs take the per-pair path.  Timed one
# product at a time in dimension 6 (2 CPUs, NumPy 2.4), the per-pair path
# breaks even with the packed kernel at 32-40 pairs (wedge: ~64), yet on the
# criterion-7 identity workload (perfbench small_identities) a cutoff of 32
# gave a median 4.7k ops/s over 6 seeds and 36 gave 5.0k over 3, against
# 5.2k and 5.4k for 16 on the same seeds.
_SMALL_PAIRS = 16


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
    acc: dict[Blade, float] = {}
    for blade_a, ca in a.terms():
        for blade_b, cb in b.terms():
            if sig is None:
                sign, blade = blade_wedge(blade_a, blade_b)
            else:
                sign, blade = blade_product(blade_a, blade_b, sig)
            if sign == 0:
                continue
            if filter_mode == kernels.FILTER_LEFT:
                if len(blade) != len(blade_b) - len(blade_a):
                    continue
            elif filter_mode == kernels.FILTER_RIGHT:
                if len(blade) != len(blade_a) - len(blade_b):
                    continue
            value = acc.get(blade, 0.0) + ca * cb * sign
            if value == 0.0:
                acc.pop(blade, None)
            else:
                acc[blade] = value
    return Multivector._wrap(_in_canonical_order(acc))


def _packed(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    keys_a, coeffs_a = _encode(a)
    keys_b, coeffs_b = _encode(b)
    pos, neg = kernels.region_masks(sig) if sig is not None else (0, 0)
    keys, coeffs = kernels.pair_table(
        keys_a, coeffs_a, keys_b, coeffs_b, np.uint64(pos), np.uint64(neg), filter_mode
    )
    return _decode(keys, coeffs)


def _encode(mv: Multivector) -> tuple[np.ndarray, np.ndarray]:
    n = mv.num_terms()
    keys = np.empty(n, dtype=np.uint64)
    coeffs = np.empty(n, dtype=np.float64)
    for pos, (blade, c) in enumerate(mv.terms()):
        key = 0
        for i in blade:
            key |= 1 << (i - 1)
        keys[pos] = key
        coeffs[pos] = c
    return keys, coeffs


def _decode(keys: np.ndarray, coeffs: np.ndarray) -> Multivector:
    out: dict[Blade, float] = {}
    for key, c in zip(keys.tolist(), coeffs.tolist()):
        indices = []
        i = 1
        while key:
            if key & 1:
                indices.append(i)
            key >>= 1
            i += 1
        out[tuple(indices)] = c
    # kernel keys come out ascending, which is canonical order already
    return Multivector._wrap(out)
