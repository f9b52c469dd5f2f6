"""The bit-packed product path, vectorized with numpy.

Blades whose indices all fit in 1..64 pack into a uint64 mask (bit i-1 set
for index i), and a whole multivector's terms, stored as a list of blade
keys beside a list of coefficients, become a pair of parallel arrays (keys,
coeffs), one ``np.fromiter`` call each.  :func:`packed_product` holds the
whole path: it packs both operands' terms, takes the signature's region
masks, calls the kernel and decodes its arrays into the result's two lists,
one ``tolist()`` each.  The kernel, :func:`pair_table`, for every term pair
(a, b):

* XORs the masks to get the result blade,
* takes the sign from the :func:`~cliffcalc.blade.sign_factors` of ``a``,
  computed once per left key on the whole array at the keys' width (the
  caller's largest index), as the per-pair path does:
  the reorder sign is the parity of a prefix-parity mask of ``a`` AND ``b``
  (the bitmap reordering sign of Dorst, Fontijne & Mann, *Geometric Algebra
  for Computer Science*, ch. 19), with the -1 squares of the region masks
  (``pos_mask``/``neg_mask`` mark the generators squaring to +1/-1)
  folded into the same popcount, and a generator squaring to 0 kills the
  pair,
* optionally drops pairs failing a contraction grade filter (left keeps
  a ⊆ b, right keeps b ⊆ a),

then accumulates coefficients per result key in pair order from +0.0 and
drops the sums that are exactly zero; keys come out ascending, the order a
multivector stores them in, so decoding is one ``tolist()`` per array.  While
``1 << width`` bins are cheap (:func:`dense_bins`) a key is its own bin and
a nonzero bin's index its key, otherwise ``np.unique`` bins the keys.  A
pair whose product is ±0.0 is summed like any other, since it changes no
sum.

Narrow dense bins (keys up to index 12) take the table in row blocks of left
keys (:func:`block_rows`), about ``_BLOCK_PAIRS`` pairs each, so that a
block's tables stay in cache through the passes over them.  Each block's
``bincount`` reads [the sums so far | the block's pairs] with index [0 ..
bins-1 | the block's keys], so each key goes on adding its pairs in pair
order from its sum so far.  That is bit for bit one pass over the whole
table: ``bincount`` adds each bin's weights in input order from +0.0, and
``0.0 + s == s`` for every ``s`` but -0.0, which restarts as +0.0; the next
nonzero term then gives the same sum from either zero, and a sum that stays
zero is dropped either way.  A product that fits in one block, and every
product on sparse or wider dense bins, takes one pass with no sums carried,
each left key's column broadcast against the right operand's row.  The
blocks instead run each pass over two contiguous tables (:func:`_outer`):
the right operand is repeated over a block's rows once per call, and a left
operand's column is copied out over its block's rows first, which spares
numpy one inner loop per row.

Each thread keeps the kernel's three tables (17 bytes a pair) between calls
for products of up to ``_HELD_PAIRS`` term pairs, so a call writes into
memory already mapped; every returned array is a copy.  A product taken in
blocks needs tables for its bins and two blocks (the block's pairs and the
repeated right operand), not for the whole table.

Backend selection: :func:`set_backend` switches between ``numpy`` (the
default) and ``python``, which skips the packed path entirely:
:mod:`cliffcalc.products` then uses the per-pair blade arithmetic, which is
also what any product with indices above 64 uses.

This is the only module that imports numpy, and it does so inside the packed
path's functions, not at the top of the module, so ``import cliffcalc`` and
every product that never takes the packed path run without loading it; after
the first packed product the import is a ``sys.modules`` lookup.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .blade import sign_factors
# generator_square is not used here; perfbench/spans.py patches it by name
from .metric import Signature, generator_square, signature_masks  # noqa: F401

#: Largest generator index the packed kernel can represent.
PACK_LIMIT = 64

FILTER_NONE = 0  # falsy: products tests ``if filter_mode`` for a contraction
FILTER_LEFT = 1
FILTER_RIGHT = 2

#: Term pairs up to which each thread keeps its kernel tables between calls
#: (17 bytes a pair: 17 MiB); a larger product allocates its tables per call.
_HELD_PAIRS = 1 << 20

_held = threading.local()

#: Term pairs a row block of a dense-bins table aims at: its tables (~1 MiB
#: with the repeated right operand) stay in a core's cache through the passes
#: over them.
_BLOCK_PAIRS = 1 << 15

_BACKENDS = ("numpy", "python")


@lru_cache(maxsize=128)
def region_masks(sig: Signature) -> tuple[int, int]:
    """(pos_mask, neg_mask) over indices 1..64 for a signature."""
    return signature_masks(sig, PACK_LIMIT)


def dense_bins(width: int, pairs: int) -> int:
    """Bin count for dense accumulation, or 0 when the sparse path is cheaper.

    Dense pays for ``1 << width`` bins, where ``width`` bounds the bit length
    of every key (the caller's ``max_index()``); it is used while that stays
    within twice the pair count (and always up to 1024 bins).  This is the
    kernel's own rule: it weighs ``bincount`` over the bins against
    ``np.unique`` over the pairs, both at array speed, where
    :func:`cliffcalc.multivector.dense_slots`, the per-pair path's and
    ``+``'s rule, weighs a Python list of slots against a sort of tuples.
    """
    bins = 1 << width
    return bins if bins <= max(1024, 2 * pairs) else 0


def packed_product(keys_a: list[int], coeffs_a: list[float], keys_b: list[int], coeffs_b: list[float],
                   sig: Signature, filter_mode: int, width: int) -> tuple[list[int], list[float]]:
    """The terms of the product of two operands, each given as its stored
    blade keys and coefficients, through :func:`pair_table`, as lists of
    keys and coefficients in stored form.  ``width`` (at most
    ``PACK_LIMIT``) bounds the bit length of every key of both."""
    import numpy as np

    # region_masks and pair_table are looked up here at each call, so a patch
    # on this module (perfbench/spans.py times both) sees every packed product
    pos, neg = region_masks(sig)
    keys, coeffs = pair_table(*_operands(keys_a, coeffs_a), *_operands(keys_b, coeffs_b),
                              np.uint64(pos), np.uint64(neg), width, filter_mode)
    # kernel keys come out ascending, which is stored order already
    return keys.tolist(), coeffs.tolist()


def _operands(keys: list[int], coeffs: list[float]) -> tuple:
    """Blade keys and coefficients as the kernel's uint64 and float64 arrays."""
    import numpy as np

    # fromiter with the length: ~0.9 of np.array's time on lists of 100-4,096
    return np.fromiter(keys, np.uint64, len(keys)), np.fromiter(coeffs, np.float64, len(coeffs))


def _tables(pairs: int):
    """(float64, uint64, bool) scratch arrays of ``pairs`` elements each.

    Up to ``_HELD_PAIRS`` pairs they are slices of this thread's held
    buffers, which grow only when a call needs more than they hold.
    """
    import numpy as np

    held = getattr(_held, "tables", None)
    if held is None or held[0].size < pairs:
        held = (np.empty(pairs), np.empty(pairs, np.uint64), np.empty(pairs, np.bool_))
        if pairs <= _HELD_PAIRS:
            _held.tables = held
    return tuple(table[:pairs] for table in held)


def block_rows(na: int, nb: int, bins: int) -> int:
    """Left keys per row block of an ``na`` x ``nb`` pair table.

    Dense bins of at most an eighth of ``_BLOCK_PAIRS`` (keys up to index
    12), so that the running sums each block carries stay small against it,
    take about ``_BLOCK_PAIRS`` pairs a block; that is at least 8 rows, as
    the ``nb`` right keys are distinct and below ``bins``.  Sparse bins and
    wider dense bins take every row at once.
    """
    return min(na, _BLOCK_PAIRS // nb) if 0 < 8 * bins <= _BLOCK_PAIRS else na


def _outer(ufunc, column, right, out):
    """``out[i, j] = ufunc(column[i], right[i, j])``, ``right`` being the
    right operand as one row, broadcast, or repeated row by row.  Against
    repeated rows ``column`` is copied out first: a ufunc over two
    contiguous tables runs as one loop, one with a broadcast column as one
    loop per row."""
    if right.shape[0] == 1:
        ufunc(column[:, None], right, out=out)
    else:
        out[...] = column[:, None]
        ufunc(out, right, out=out)


def pair_table(keys_a, coeffs_a, keys_b, coeffs_b, pos_mask, neg_mask, width, filter_mode):
    """Product table over all term pairs, summed per result key.

    ``width`` (at most ``PACK_LIMIT``) bounds the bit length of every key of
    both operands: it sets how the left keys' prefix parity is taken and the
    choice between dense and sparse bins.
    """
    import numpy as np

    na, nb = keys_a.size, keys_b.size
    if na * nb == 0:
        return np.empty(0, np.uint64), np.empty(0)
    # the per-pair path's sign rule, one row per left key: an odd popcount of
    # parity & b is a negative sign, and dead & b a generator squaring to 0
    parity, dead = sign_factors(keys_a, pos_mask, neg_mask, width)
    # a pair is kept when b & mask == want, as in the per-pair path, with the
    # dead pairs folded in (dead is a subset of a): left keeps a ⊆ b, right
    # b ⊆ a, and only a dead generator or a filter drops anything
    mask = want = None
    if filter_mode or dead.any():
        mask = dead
        if filter_mode == FILTER_LEFT:
            mask, want = keys_a ^ dead, keys_a
        elif filter_mode == FILTER_RIGHT:
            mask = ~keys_a | dead

    # one bin per possible key while that is cheap, else one per distinct
    # key; a key below the bin count reads as the same int64, so it is its own
    # bin index without a copy, and a nonzero bin's index is its key.
    # bincount sums each bin in input order from +0.0, which a ±0.0 term never
    # changes, so no zero pair is dropped first.  Dense bins go through the
    # table in row blocks, each block's bincount reading [the sums so far |
    # its pairs] with index [0 .. bins-1 | its keys] (see the module docstring)
    bins = dense_bins(width, na * nb)
    rows = block_rows(na, nb, bins)
    carry = bins if rows < na else 0
    # the tables may be held buffers: every array returned is a copy.  Blocks
    # repeat the right operand row by row in the tables' tails, past the
    # last block's pairs; one pass broadcasts it
    block_pairs = rows * nb
    coeffs, keys, keep = _tables(carry + block_pairs + (block_pairs if carry else 0))
    coeffs_b_rows, keys_b_rows = coeffs_b[None, :], keys_b[None, :]
    if carry:
        coeffs_b_rows = coeffs[carry + block_pairs:].reshape(rows, nb)
        keys_b_rows = keys[carry + block_pairs:].reshape(rows, nb)
        np.copyto(coeffs_b_rows, coeffs_b)
        np.copyto(keys_b_rows, keys_b)
        keys[:carry] = np.arange(carry, dtype=np.uint64)
        coeffs[:carry] = 0.0
    for start in range(0, na, rows):
        block = slice(start, start + rows)
        n = min(rows, na - start)
        pairs = slice(carry, carry + n * nb)
        products, table = coeffs[pairs].reshape(n, nb), keys[pairs].reshape(n, nb)
        cb, kb = coeffs_b_rows[:n], keys_b_rows[:n]
        # The sign is the popcount's low bit shifted to the float's sign bit;
        # negation is exact, so this is s * (a * b) == (s * a) * b bit for bit.
        # A product that overflows is inf, without a warning, as in the per-pair path
        with np.errstate(over="ignore", invalid="ignore"):
            _outer(np.multiply, coeffs_a[block], cb, products)
        _outer(np.bitwise_and, parity[block], kb, table)
        np.bitwise_count(table, out=table)
        np.left_shift(table, 63, out=table)
        bits = products.view(np.uint64)
        np.bitwise_xor(bits, table, out=bits)
        kept = None
        if mask is not None:
            _outer(np.bitwise_and, mask[block], kb, table)
            kept = np.equal(table, 0 if want is None else want[block, None], out=keep[:n * nb].reshape(n, nb))
        _outer(np.bitwise_xor, keys_a[block], kb, table)
        if kept is not None:
            table, products = table[kept], products[kept]
        if carry:
            end = carry + table.size
            if kept is not None:
                keys[carry:end], coeffs[carry:end] = table, products
            coeffs[:carry] = np.bincount(keys[:end].view(np.int64), weights=coeffs[:end])
    unique = None
    if carry:
        sums = coeffs[:carry]
    else:
        table, products = table.ravel(), products.ravel()
        if bins:
            index = table.view(np.int64)
        else:
            unique, index = np.unique(table, return_inverse=True)
        sums = np.bincount(index, weights=products)
    present = sums.nonzero()[0]
    return present.view(np.uint64) if unique is None else unique[present], sums[present]


_active = "numpy"


def active_backend() -> str:
    """Name of the backend products will use: numpy or python."""
    return _active


def set_backend(name: str) -> str:
    """Override the backend at runtime; returns the previous name."""
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {_BACKENDS}")
    previous = _active
    _active = name
    return previous
