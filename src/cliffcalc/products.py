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
1..64 and the product has more term pairs than its cutoff, the keys go into
uint64 arrays for the packed numpy kernel in :mod:`cliffcalc.kernels`, with
the operands' largest index as the keys' width.  Smaller products, blades
with larger indices and every product under ``kernels.set_backend("python")``
take the per-pair path, one loop over the pairs on Python ints,
:func:`_pairs`.  There the contractions and the wedge drop the pairs that
cannot contribute (outside the grade filter, or sharing a generator) before
the sign, so a left key takes its sign factors (indices up to 12 read their
prefix parity from a table) only once a pair survives; a pair takes its key
only for a nonzero sign.  When every index of both operands is at most
``_TABLE_WIDTH`` (6), which covers 3-D vectors, Cl(3,1) and calculator
lines on such values, all four products instead read each pair's sign from
``_sign_table``, 0 where the filter drops the pair, and make no call per
pair.  The table is built once per signature masks and filter by that same
loop, so there is one filter rule and one sign rule.

Both paths sum coefficients per result key in pair order and drop exact
zeros once, at the end: the per-pair path through
:func:`~cliffcalc.multivector.canonical`, which also orders its keys, and the
kernel at array level, its keys coming out ascending.

Each product passes its own cutoff to ``_binary``, because the per-pair
path's cost follows the pairs that pass the product's filter while the
kernel's barely follows the table size.  The geometric product keeps every
pair, the wedge drops the overlapping ones and the contractions most of
theirs, so the grid broke even at about 100-144 pairs for the geometric
product (``_SMALL_PAIRS``), 256 for the wedge (``_SMALL_WEDGE_PAIRS``) and
400-576 for the contractions (``_SMALL_CONTRACTION_PAIRS``) before the sign
table; with it, products of indices up to 6 break even later, and those of
dimension 10 where they did.

numpy is imported inside the packed path's two functions, ``_packed`` and
``_operands``, so that a product which stays on the per-pair path never loads
it: most calculator lines, and every product with an index above 64.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernels
# perfbench/spans.py times the per-pair calls through the two aliases; the
# sign table is built through pair_sign itself, so they count the pairs of
# the products wider than the table alone
from .blade import pair_sign, pair_sign as blade_product, pair_sign as blade_wedge, sign_factors
from .metric import Signature, signature_masks
from .multivector import Multivector, canonical, from_scalar

# Products of at most this many term pairs take the per-pair path.  Each was
# the largest pair count at which the median per-pair over packed time of the
# "cutoffs" grid in BENCH_products.json, written by
# ``benchmarks/bench_products.py --cutoffs``, was below 1 before the sign
# table; the grid now reads 144, 640 and 256, from faster dimension-6 cells
# alone.  "cutoff_history" there holds the measurements behind the earlier
# values.
_SMALL_PAIRS = 100
_SMALL_CONTRACTION_PAIRS = 400
_SMALL_WEDGE_PAIRS = 256

# Per-pair products whose operands' largest index is at most this read each
# pair's sign, with the product's filter folded in, from ``_sign_table``.  A
# table has 4**width entries: at 6 it builds in 0.7-1.6 ms and holds ~35 KiB
# of tuples.  In-process against the loop that filters and signs each pair,
# a 9x9 Cl(3,1) product took 0.51-0.57 of the time, a criterion-7 identity
# 0.70-0.75 and a 1x1 product 0.83-0.93 (benchmarks/ab.py, 21 rounds,
# each faster in at least 17 of them).  At 8 a table would hold ~0.55 MiB
# and take 13-25 ms to build.
_TABLE_WIDTH = 6
# Tables held at once, least recently used dropped first (~0.6 MiB): each is
# one (pos, neg) at width 6 and one filter, and 16 cover five signatures'
# three filters, the wedge sharing the Grassmann geometric product's.
_TABLES_HELD = 16


def geometric_product(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """The Clifford product of two multivectors under ``sig``."""
    return _binary(a, b, sig, kernels.FILTER_NONE, _SMALL_PAIRS)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; signature-free, zero whenever blades overlap."""
    return _binary(a, b, None, kernels.FILTER_NONE, _SMALL_WEDGE_PAIRS)


def left_contraction(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """a ⌋ b: keeps the parts of the product lowering b's grade by a's."""
    return _binary(a, b, sig, kernels.FILTER_LEFT, _SMALL_CONTRACTION_PAIRS)


def right_contraction(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """a ⌊ b: keeps the parts of the product lowering a's grade by b's."""
    return _binary(a, b, sig, kernels.FILTER_RIGHT, _SMALL_CONTRACTION_PAIRS)


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


def _binary(
    a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int, cutoff: int
) -> Multivector:
    if (
        a.num_terms() * b.num_terms() > cutoff
        and kernels.active_backend() != "python"
        and a.max_index() <= kernels.PACK_LIMIT
        and b.max_index() <= kernels.PACK_LIMIT
    ):
        return _packed(a, b, sig, filter_mode)
    return _per_pair(a, b, sig, filter_mode)


@lru_cache(maxsize=_TABLES_HELD)
def _sign_table(pos: int, neg: int, filter_mode: int) -> tuple[tuple[int, ...], ...]:
    """``rows[ka][kb]``: the sign of every pair of keys below ``1 << _TABLE_WIDTH``
    under the masks ``pos``/``neg`` (at that width), 0 where the product's
    filter drops the pair.  Row ``ka`` is what :func:`_pairs` makes of ``ka``
    and every key, all coefficients 1, so the table holds that loop's filter
    and sign rule.  The wedge is the product under the null masks (0, 0),
    whose sign is already 0 on the pairs that its filter drops."""
    units = [(kb, 1.0) for kb in range(1 << _TABLE_WIDTH)]
    rows = []
    for ka, _ in units:
        # kb -> ka ^ kb is one to one, so each sum is one pair's sign
        signs = _pairs([(ka, 1.0)], units, pos, neg, filter_mode, False, pair_sign)
        rows.append(tuple([int(signs.get(ka ^ kb, 0)) for kb, _ in units]))
    # tuples: every caller of the cache shares the one table
    return tuple(rows)


def _per_pair(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    # the operands' largest index, as max_index() takes it (a key dict's last
    # key is its largest) but without two method calls
    width = (next(reversed(a._terms), 0) | next(reversed(b._terms), 0)).bit_length()
    if width > _TABLE_WIDTH:
        if sig is None:
            acc = _pairs(a._terms.items(), b._terms.items(), 0, 0, filter_mode, True, blade_wedge)
        else:
            pos, neg = signature_masks(sig, width)
            acc = _pairs(a._terms.items(), b._terms.items(), pos, neg, filter_mode, False, blade_product)
        return Multivector._wrap(canonical(acc))
    pos, neg = signature_masks(sig, _TABLE_WIDTH) if sig is not None else (0, 0)
    rows = _sign_table(pos, neg, filter_mode)
    right = b._terms.items()
    acc = {}
    get = acc.get
    for ka, ca in a._terms.items():
        row = rows[ka]
        for kb, cb in right:
            sign = row[kb]
            if sign:
                key = ka ^ kb
                acc[key] = get(key, 0.0) + ca * cb * sign
    return Multivector._wrap(canonical(acc))


def _pairs(left, right, pos: int, neg: int, filter_mode: int, wedge: bool, sign_of) -> dict[int, float]:
    """Per key ``ka ^ kb``, the sum in pair order of ``ca * cb * sign`` over the
    pairs of the terms ``left`` and ``right`` that the product's filter keeps
    and ``sign_of`` gives a nonzero sign; exact zeros are kept."""
    acc: dict[int, float] = {}
    get = acc.get
    for ka, ca in left:
        # a pair is kept when kb & mask == want: left keeps a ⊆ b and right
        # b ⊆ a, exactly the pairs whose product has grade |b| - |a| or
        # |a| - |b|; the wedge keeps the pairs that share no generator, and
        # the geometric product (mask = want = 0) keeps every pair
        if filter_mode == kernels.FILTER_LEFT:
            mask = want = ka
        elif filter_mode:
            mask, want = ~ka, 0
        elif wedge:
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
    return acc


def _packed(a: Multivector, b: Multivector, sig: Signature | None, filter_mode: int) -> Multivector:
    import numpy as np

    pos, neg = kernels.region_masks(sig) if sig is not None else (0, 0)
    keys, coeffs = kernels.pair_table(*_operands(a), *_operands(b), np.uint64(pos), np.uint64(neg),
                                      max(a.max_index(), b.max_index()), filter_mode)
    # kernel keys come out ascending, which is canonical order already
    return Multivector._wrap(dict(zip(keys.tolist(), coeffs.tolist())))


def _operands(mv: Multivector) -> tuple:
    """``mv``'s blade keys and coefficients as the kernel's uint64 and float64 arrays."""
    import numpy as np

    n = mv.num_terms()
    return np.fromiter(mv._terms, np.uint64, n), np.fromiter(mv._terms.values(), np.float64, n)
