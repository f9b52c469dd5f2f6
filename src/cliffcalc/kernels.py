"""The bit-packed product kernel, vectorized with numpy.

Blades whose indices all fit in 1..64 pack into a uint64 mask (bit i-1 set
for index i), and a whole multivector becomes a pair of parallel arrays
(keys, coeffs).  A product of two such multivectors is then one call into a
kernel that, for every term pair (a, b):

* XORs the masks to get the result blade,
* takes the sign from the :func:`~cliffcalc.blade.sign_factors` of ``a``,
  computed once per left key on the whole array, as the per-pair path does:
  the reorder sign is the parity of a prefix-parity mask of ``a`` AND ``b``
  (the bitmap reordering sign of Dorst, Fontijne & Mann, *Geometric Algebra
  for Computer Science*, ch. 19), with the -1 squares of the region masks
  (``pos_mask``/``neg_mask`` mark the generators squaring to +1/-1)
  folded into the same popcount, and a generator squaring to 0 kills the
  pair,
* optionally drops pairs failing a contraction grade filter (left keeps
  a ⊆ b, right keeps b ⊆ a),

then accumulates coefficients per result key in pair order from 0.0 and
prunes exact zeros; keys come out ascending.

Backend selection: the ``CLIFFCALC_BACKEND`` environment variable may be set
to ``numpy`` (the default) or ``python`` (skip the packed kernel entirely;
:mod:`cliffcalc.products` then uses the per-pair blade arithmetic, which is
also what any product with indices above 64 uses).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .blade import sign_factors
# generator_square is not used here; perfbench/spans.py patches it by name
from .metric import Signature, generator_square, signature_masks  # noqa: F401

#: Largest generator index the packed kernel can represent.
PACK_LIMIT = 64

FILTER_NONE = 0  # falsy: products tests ``if filter_mode`` for a contraction
FILTER_LEFT = 1
FILTER_RIGHT = 2

_ENV_VAR = "CLIFFCALC_BACKEND"
_BACKENDS = ("numpy", "python")


@lru_cache(maxsize=128)
def region_masks(sig: Signature) -> tuple[int, int]:
    """(pos_mask, neg_mask) over indices 1..64 for a signature."""
    return signature_masks(sig, PACK_LIMIT)


def dense_bins(keys_a, keys_b) -> int:
    """Bin count for dense accumulation, or 0 when the sparse path is cheaper.

    Dense pays for ``1 << width`` bins, where ``width`` is the bit length of
    the largest key; it is used while that stays within twice the pair count
    (and always up to 1024 bins).
    """
    width = int(max(keys_a.max(), keys_b.max())).bit_length()
    bins = 1 << width
    return bins if bins <= max(1024, 2 * keys_a.size * keys_b.size) else 0


def pair_table_numpy(keys_a, coeffs_a, keys_b, coeffs_b, pos_mask, neg_mask, filter_mode):
    """Product table over all term pairs, summed per result key."""
    ka = keys_a[:, None]
    kb = keys_b[None, :]

    # the per-pair path's sign rule, one row per left key: an odd popcount of
    # parity & b is a negative sign, and dead & b a generator squaring to 0
    parity, dead = sign_factors(keys_a, pos_mask, neg_mask, PACK_LIMIT)
    odd = np.bitwise_count(parity[:, None] & kb) & 1
    coeffs = (1 - 2 * odd.view(np.int8)) * coeffs_a[:, None] * coeffs_b[None, :]

    keep = (dead[:, None] & kb) == 0
    if filter_mode == FILTER_LEFT:
        keep &= (ka & ~kb) == 0
    elif filter_mode == FILTER_RIGHT:
        keep &= (kb & ~ka) == 0
    keep &= coeffs != 0.0
    flat_keys = (ka ^ kb)[keep]
    flat_coeffs = coeffs[keep]
    if flat_keys.size == 0:
        return flat_keys, flat_coeffs

    # one bin per possible key while that is cheap, else one per distinct
    # key; a key below the bin count reads as the same int64, so it is its own
    # bin index without a copy
    bins = dense_bins(keys_a, keys_b)
    if bins:
        keys, index = np.arange(bins, dtype=np.uint64), flat_keys.view(np.int64)
    else:
        keys, index = np.unique(flat_keys, return_inverse=True)
    sums = np.bincount(index, weights=flat_coeffs, minlength=keys.size)
    present = np.flatnonzero(sums)
    return keys[present], sums[present]


def _default_backend() -> str:
    requested = os.environ.get(_ENV_VAR, "").strip().lower()
    if not requested:
        return "numpy"
    if requested not in _BACKENDS:
        raise ValueError(
            f"{_ENV_VAR}={requested!r} is not one of {', '.join(_BACKENDS)}"
        )
    return requested


_active = _default_backend()


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


#: The packed kernel (callers guard indices <= 64).
pair_table = pair_table_numpy
