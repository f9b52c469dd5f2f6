"""The four bilinear products and integer powers.

All metric-dependent operations take the :class:`~cliffcalc.metric.Signature`
explicitly; only the REPL holds one as ambient state.  The wedge product
never consults a metric.

Contractions are computed term-wise with a grade filter: for blades a of
grade r and b of grade s, the geometric product a b is homogeneous, so
keeping exactly the pairs whose product has grade s - r (left) or r - s
(right) equals the definition as a double sum of grade projections.

Both paths work on blade keys with one sign rule: the
:func:`~cliffcalc.blade.sign_factors` of each left key a, then per pair the
:func:`~cliffcalc.blade.pair_sign` (``dead & b`` and the parity of
``parity & b``) and the result key ``a ^ b``.  When every index fits in
1..64 and the product has more than ``_SMALL_PAIRS`` term pairs
(``_SMALL_CONTRACTION_PAIRS`` for the contractions, ``_SMALL_WEDGE_PAIRS``
for the wedge), the keys go into uint64 arrays for the packed numpy kernel
in :mod:`cliffcalc.kernels`, with the operands' largest index as the keys'
width.  Smaller products, blades with larger indices and every product
under ``CLIFFCALC_BACKEND=python`` take the per-pair path, one loop over the
pairs on Python ints, whose left keys of indices up to 12 read their prefix
parity from a table.  There the contractions and the wedge drop the pairs
that cannot contribute (outside the grade filter, or sharing a generator)
before the sign, so a left key takes its sign factors only once a pair
survives; a pair takes its key only for a nonzero sign.
Both paths sum coefficients per result key in pair order and drop exact
zeros once, at the end: the per-pair path through
:func:`~cliffcalc.multivector.canonical`, which also orders its keys, and the
kernel at array level, its keys coming out ascending.
"""

from __future__ import annotations

import numpy as np

from . import kernels
# perfbench/spans.py times the per-pair calls through these two names
from .blade import pair_sign as blade_product, pair_sign as blade_wedge, sign_factors
from .metric import Signature, signature_masks
from .multivector import Multivector, canonical, from_scalar

# Products of at most this many term pairs take the per-pair path: the
# geometric product, the contractions (whose grade filter drops most pairs
# before the sign) and the wedge (which drops overlapping pairs).  Each is the
# largest pair count at which the median per-pair over packed time of the
# "cutoffs" grid in BENCH_products.json, written by
# ``benchmarks/bench_products.py --cutoffs``, is below 1; "cutoff_history"
# there holds the measurements behind the earlier values.
_SMALL_PAIRS = 100
_SMALL_CONTRACTION_PAIRS = 400
_SMALL_WEDGE_PAIRS = 256


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
    if k == 0:
        return from_scalar(1.0)
    # 1 * a is a itself: the scalar key's sign is +1 and 1.0 * c == c
    result = a
    for _ in range(k - 1):
        result = geometric_product(result, a, sig)
    return result


def _binary(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    if a.is_zero() or b.is_zero():
        return Multivector._wrap({})
    if filter_mode:
        cutoff = _SMALL_CONTRACTION_PAIRS
    elif sig is None:
        cutoff = _SMALL_WEDGE_PAIRS
    else:
        cutoff = _SMALL_PAIRS
    if (
        a.num_terms() * b.num_terms() > cutoff
        and kernels.active_backend() != "python"
        and a.max_index() <= kernels.PACK_LIMIT
        and b.max_index() <= kernels.PACK_LIMIT
    ):
        return _packed(a, b, sig, filter_mode)
    return _per_pair(a, b, sig, filter_mode)


def _per_pair(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    if sig is None:
        pos = neg = 0
        sign_of = blade_wedge
    else:
        pos, neg = signature_masks(sig, max(a.max_index(), b.max_index()))
        sign_of = blade_product
    right = b._terms.items()
    acc: dict[int, float] = {}
    get = acc.get
    for ka, ca in a._terms.items():
        # a pair is kept when kb & mask == want: left keeps a ⊆ b and right
        # b ⊆ a, exactly the pairs whose product has grade |b| - |a| or
        # |a| - |b|; the wedge keeps the pairs that share no generator, and
        # the geometric product (mask = want = 0) keeps every pair
        if filter_mode == kernels.FILTER_LEFT:
            mask = want = ka
        elif filter_mode:
            mask, want = ~ka, 0
        elif sig is None:
            mask, want = ka, 0
        else:
            mask = want = 0
        parity = None
        for kb, cb in right:
            if kb & mask != want:
                continue
            if parity is None:  # once per left key, and never if none is kept
                parity, dead = sign_factors(ka, pos, neg, ka.bit_length())
            sign = sign_of(parity, dead, kb)
            if sign:
                key = ka ^ kb
                acc[key] = get(key, 0.0) + ca * cb * sign
    return Multivector._wrap(canonical(acc))


def _packed(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    pos, neg = kernels.region_masks(sig) if sig is not None else (0, 0)
    keys, coeffs = kernels.pair_table(
        np.fromiter(a._terms, np.uint64, a.num_terms()),
        np.fromiter(a._terms.values(), np.float64, a.num_terms()),
        np.fromiter(b._terms, np.uint64, b.num_terms()),
        np.fromiter(b._terms.values(), np.float64, b.num_terms()),
        np.uint64(pos), np.uint64(neg), max(a.max_index(), b.max_index()), filter_mode,
    )
    # kernel keys come out ascending, which is canonical order already
    return Multivector._wrap(dict(zip(keys.tolist(), coeffs.tolist())))
