"""The bit-packed product kernel, vectorized with numpy.

Blades whose indices all fit in 1..64 pack into a uint64 mask (bit i-1 set
for index i), and a whole multivector becomes a pair of parallel arrays
(keys, coeffs).  A product of two such multivectors is then one call into a
kernel that, for every term pair (a, b):

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
drops the sums that are exactly zero; keys come out ascending.  While
``1 << width`` bins are cheap (:func:`dense_bins`) a key is its own bin and
a nonzero bin's index its key, otherwise ``np.unique`` bins the keys.  A
pair whose product is ±0.0 is summed like any other, since it changes no
sum.

Each thread keeps the kernel's three pair tables (float64, uint64, uint8)
between calls for products of up to ``_HELD_PAIRS`` term pairs, so a call
writes into memory already mapped; every returned array is a copy.

Backend selection: :func:`set_backend` switches between ``numpy`` (the
default) and ``python``, which skips the packed kernel entirely:
:mod:`cliffcalc.products` then uses the per-pair blade arithmetic, which is
also what any product with indices above 64 uses.

numpy is imported inside :func:`pair_table` and :func:`_tables`, not at the
top of the module, so ``import cliffcalc`` and every product that never takes
the packed path run without loading it; after the first packed product the
import is a ``sys.modules`` lookup.
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

_BACKENDS = ("numpy", "python")


@lru_cache(maxsize=128)
def region_masks(sig: Signature) -> tuple[int, int]:
    """(pos_mask, neg_mask) over indices 1..64 for a signature."""
    return signature_masks(sig, PACK_LIMIT)


def dense_bins(width: int, pairs: int) -> int:
    """Bin count for dense accumulation, or 0 when the sparse path is cheaper.

    Dense pays for ``1 << width`` bins, where ``width`` bounds the bit length
    of every key (the caller's ``max_index()``); it is used while that stays
    within twice the pair count (and always up to 1024 bins).
    """
    bins = 1 << width
    return bins if bins <= max(1024, 2 * pairs) else 0


def _tables(pairs: int):
    """(float64, uint64, uint8) scratch arrays of ``pairs`` elements each.

    Up to ``_HELD_PAIRS`` pairs they are slices of this thread's held
    buffers, which grow only when a call needs more than they hold.
    """
    import numpy as np

    held = getattr(_held, "tables", None)
    if held is None or held[0].size < pairs:
        held = (np.empty(pairs), np.empty(pairs, np.uint64), np.empty(pairs, np.uint8))
        if pairs <= _HELD_PAIRS:
            _held.tables = held
    return tuple(table[:pairs] for table in held)


def pair_table(keys_a, coeffs_a, keys_b, coeffs_b, pos_mask, neg_mask, width, filter_mode):
    """Product table over all term pairs, summed per result key.

    ``width`` (at most ``PACK_LIMIT``) bounds the bit length of every key of
    both operands: it sets the rounds of the left keys' prefix parity and the
    choice between dense and sparse bins.
    """
    import numpy as np

    na, nb = keys_a.size, keys_b.size
    if na * nb == 0:
        return np.empty(0, np.uint64), np.empty(0)
    # the tables may be held buffers: every array returned is a copy
    coeffs, table, count = (t.reshape(na, nb) for t in _tables(na * nb))
    kb = keys_b[None, :]

    # the per-pair path's sign rule, one row per left key: an odd popcount of
    # parity & b is a negative sign, and dead & b a generator squaring to 0.
    # The sign is the popcount's low bit shifted to the float's sign bit;
    # negation is exact, so this is s * (a * b) == (s * a) * b bit for bit.
    parity, dead = sign_factors(keys_a, pos_mask, neg_mask, width)
    # a product that overflows is inf, without a warning, as in the per-pair path
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(coeffs_a[:, None], coeffs_b[None, :], out=coeffs)
    np.bitwise_and(parity[:, None], kb, out=table)
    np.bitwise_count(table, out=count)
    np.left_shift(count, 63, out=table, dtype=np.uint64)
    bits = coeffs.view(np.uint64)
    np.bitwise_xor(bits, table, out=bits)

    # a pair is kept when b & mask == want, as in the per-pair path, with the
    # dead pairs folded in (dead is a subset of a): left keeps a ⊆ b, right
    # b ⊆ a, and only a dead generator or a filter drops anything
    keep = None
    if filter_mode or dead.any():
        mask, want = dead, 0
        if filter_mode == FILTER_LEFT:
            mask, want = keys_a ^ dead, keys_a[:, None]
        elif filter_mode == FILTER_RIGHT:
            mask = ~keys_a | dead
        np.bitwise_and(mask[:, None], kb, out=table)
        keep = np.equal(table, want, out=count.view(np.bool_))
    np.bitwise_xor(keys_a[:, None], kb, out=table)
    if keep is None:
        flat_keys, flat_coeffs = table.ravel(), coeffs.ravel()
    else:
        flat_keys, flat_coeffs = table[keep], coeffs[keep]

    # one bin per possible key while that is cheap, else one per distinct
    # key; a key below the bin count reads as the same int64, so it is its own
    # bin index without a copy, and a nonzero bin's index is its key.
    # bincount sums each bin in pair order from +0.0, which a ±0.0 term never
    # changes, so no zero pair is dropped first
    keys = None
    if dense_bins(width, na * nb):
        index = flat_keys.view(np.int64)
    else:
        keys, index = np.unique(flat_keys, return_inverse=True)
    sums = np.bincount(index, weights=flat_coeffs)
    present = np.flatnonzero(sums)
    return present.view(np.uint64) if keys is None else keys[present], sums[present]


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
