"""The four bilinear products and integer powers.

All metric-dependent operations take the :class:`~cliffcalc.metric.Signature`
explicitly; only the REPL holds one as ambient state.  The wedge product
takes none: it is the product under the null metric,
:func:`~cliffcalc.metric.grassmann`, which every path is given for it.

Contractions are computed term-wise with a grade filter: for blades a of
grade r and b of grade s, the geometric product a b is homogeneous, so
keeping exactly the pairs whose product has grade s - r (left) or r - s
(right) equals the definition as a double sum of grade projections.

Both paths work on blade keys with one sign rule: the
:func:`~cliffcalc.blade.sign_factors` of each left key a, then per pair the
:func:`~cliffcalc.blade.pair_sign` (``dead & b`` and the parity of
``parity & b``) and the result key ``a ^ b``.  When every index fits in
1..64 and the product has more term pairs than its cutoff, the terms go to
:func:`~cliffcalc.kernels.packed_product`, which packs them for the numpy
kernel, with the operands' largest index as the keys' width, and returns the
result's terms.  Smaller products, blades with larger indices and every
product under ``kernels.set_backend("python")`` take the per-pair path, one
loop over the pairs on Python ints, :func:`_pairs`.  There the contractions
and every product under the null metric (the wedge) drop the pairs that
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
zeros once, at the end: the per-pair path lists each pair's (key, value) and
passes the list to :func:`~cliffcalc.multivector.sum_terms`, the finisher of
every builder of terms; the kernel does the same at array level, its keys
coming out ascending.

Each product passes its own cutoff to ``_binary``, because the per-pair
path's cost follows the pairs that pass the product's filter while the
kernel's barely follows the table size.  The geometric product keeps every
pair, the wedge drops the overlapping ones and the contractions most of
theirs, so the grid broke even at about 100-144 pairs for the geometric
product (``_SMALL_PAIRS``), 256 for the wedge (``_SMALL_WEDGE_PAIRS``) and
400-576 for the contractions (``_SMALL_CONTRACTION_PAIRS``) before the sign
table; with it, products of indices up to 6 break even later, and those of
dimension 10 where they did.

This module imports no numpy: only :mod:`cliffcalc.kernels` does, inside the
packed path, so a product which stays on the per-pair path never loads it:
most calculator lines, and every product with an index above 64.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernels
# perfbench/spans.py times the per-pair calls through the two aliases; the
# sign table is built through pair_sign itself, so they count the pairs of
# the products wider than the table alone
from .blade import pair_sign, pair_sign as blade_product, pair_sign as blade_wedge, sign_factors
from .metric import Signature, grassmann, signature_masks
from .multivector import Multivector, from_scalar, sum_terms

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

# Pairs that _pairs lists before it folds them into one per key (~1 MiB of
# wide keys).  A dict held only the result's keys; the list holds every pair,
# so without the fold a 512x512 product at dimension 10 under the python
# backend (262,144 pairs, at most 1,024 keys) held ~30 MiB.  high_index
# products (at most 72x72 pairs) never fold.
_PAIRS_HELD = 1 << 13

# The wedge's signature: every generator squares to 0
_GRASSMANN = grassmann()


def geometric_product(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """The Clifford product of two multivectors under ``sig``."""
    return _binary(a, b, sig, kernels.FILTER_NONE, _SMALL_PAIRS)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product: the product under the null metric, zero whenever
    blades overlap."""
    return _binary(a, b, _GRASSMANN, kernels.FILTER_NONE, _SMALL_WEDGE_PAIRS)


def left_contraction(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """a ⌋ b: keeps the parts of the product lowering b's grade by a's."""
    return _binary(a, b, sig, kernels.FILTER_LEFT, _SMALL_CONTRACTION_PAIRS)


def right_contraction(a: Multivector, b: Multivector, sig: Signature) -> Multivector:
    """a ⌊ b: keeps the parts of the product lowering a's grade by b's."""
    return _binary(a, b, sig, kernels.FILTER_RIGHT, _SMALL_CONTRACTION_PAIRS)


def power(a: Multivector, k: int, sig: Signature) -> Multivector:
    """Repeated geometric product; k = 0 gives the unit scalar, and k > 0
    takes k - 1 products, so the time grows linearly in k."""
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
    a: Multivector, b: Multivector, sig: Signature, filter_mode: int, cutoff: int
) -> Multivector:
    # the operands' largest index, as max_index() takes it (a key dict's last
    # key is its largest), once for both paths
    width = (next(reversed(a._terms), 0) | next(reversed(b._terms), 0)).bit_length()
    if (
        len(a._terms) * len(b._terms) > cutoff
        and width <= kernels.PACK_LIMIT
        and kernels.active_backend() != "python"
    ):
        return Multivector._wrap(kernels.packed_product(a._terms, b._terms, sig, filter_mode, width))
    return _per_pair(a, b, sig, filter_mode, width)


@lru_cache(maxsize=_TABLES_HELD)
def _sign_table(pos: int, neg: int, filter_mode: int, width: int) -> tuple[tuple[int, ...], ...]:
    """``rows[ka][kb]``: the sign of every pair of keys below ``1 << width``
    under the masks ``pos``/``neg`` (at that width), 0 where the product's
    filter drops the pair.  Row ``ka`` is what :func:`_pairs` makes of ``ka``
    and every key, all coefficients 1, so the table holds that loop's filter
    and sign rule.  The wedge is the product under the null masks (0, 0),
    whose sign is already 0 on the pairs that its filter drops.  ``width``
    is an argument, not read from ``_TABLE_WIDTH``, so that tables of one
    width are never served for another."""
    units = [(kb, 1.0) for kb in range(1 << width)]
    rows = []
    for ka, _ in units:
        # kb -> ka ^ kb is one to one, so each sum is one pair's sign
        signs = _pairs([(ka, 1.0)], units, pos, neg, filter_mode, pair_sign)
        rows.append(tuple([int(signs.get(ka ^ kb, 0)) for kb, _ in units]))
    # tuples: every caller of the cache shares the one table
    return tuple(rows)


def _per_pair(a: Multivector, b: Multivector, sig: Signature, filter_mode: int,
              width: int) -> Multivector:
    # the wider of the two; a max() call took ~0.1 us, a few percent of a 1x1 product
    pos, neg = signature_masks(sig, width if width > _TABLE_WIDTH else _TABLE_WIDTH)
    if width > _TABLE_WIDTH:
        sign_of = blade_product if pos | neg else blade_wedge
        acc = _pairs(a._terms.items(), b._terms.items(), pos, neg, filter_mode, sign_of)
        return Multivector._wrap(acc)
    rows = _sign_table(pos, neg, filter_mode, _TABLE_WIDTH)
    right = b._terms.items()
    return Multivector._wrap(sum_terms([
        (ka ^ kb, ca * cb * sign)
        for ka, ca in a._terms.items() for row in (rows[ka],) for kb, cb in right if (sign := row[kb])
    ]))


def _pairs(left, right, pos: int, neg: int, filter_mode: int, sign_of) -> dict[int, float]:
    """Per key ``ka ^ kb``, the sum in pair order of ``ca * cb * sign`` over the
    pairs of the terms ``left`` and ``right`` that the product's filter keeps
    and ``sign_of`` gives a nonzero sign, as
    :func:`~cliffcalc.multivector.sum_terms` returns it."""
    pairs: list[tuple[int, float]] = []
    add = pairs.append
    held = _PAIRS_HELD
    null = not (pos | neg)
    for ka, ca in left:
        if len(pairs) > held:
            # fold the list into one pair per key: each key's run goes on
            # from its sum so far, the same chain, so the list stays within
            # twice the result's size or _PAIRS_HELD, plus one row
            pairs = list(sum_terms(pairs).items())
            add = pairs.append
            held = max(_PAIRS_HELD, 2 * len(pairs))
        # a pair is kept when kb & mask == want: left keeps a ⊆ b and right
        # b ⊆ a, exactly the pairs whose product has grade |b| - |a| or
        # |a| - |b|; under the null metric (the wedge) the product keeps the
        # pairs that share no generator, whose sign alone can be nonzero, and
        # under any other (mask = want = 0) every pair
        if filter_mode == kernels.FILTER_LEFT:
            mask = want = ka
        elif filter_mode:
            mask, want = ~ka, 0
        elif null:
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
                add((ka ^ kb, ca * cb * sign))
    return sum_terms(pairs)

