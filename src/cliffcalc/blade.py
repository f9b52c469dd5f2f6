"""Basis blades, their bitmask keys and the signed product of two blades.

A blade is a product of distinct generators e_i1 ... e_ik.  At the public
boundary it is a canonical tuple: strictly increasing 1-based indices, the
empty tuple being the unit scalar.  Inside the library it is its blade key,
an int with bit i-1 set per index i (the bitmap representation of Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science*, ch. 19).  The
product of keys a and b is the blade ``a ^ b`` with a sign of two factors:

* (-1) per transposition that sorts the concatenation;
* the square of each shared generator: 0 if any squares to 0, else (-1) per
  shared generator squaring to -1.

Both read ``b`` only through an AND with the :func:`sign_factors` of ``a``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

# generator_square is not used here; perfbench/spans.py patches it by name
from .metric import Signature, generator_square, signature_masks  # noqa: F401

#: Canonical blade: strictly increasing tuple of generator indices.
Blade = tuple[int, ...]

#: Largest generator index a blade may carry.
MAX_INDEX = 65535


class SignedBlade(NamedTuple):
    """A blade together with a sign in {+1, -1, 0}.

    A zero sign means the product vanished; the blade field is then
    meaningless and set to the empty blade by convention.
    """

    sign: int
    blade: Blade


_ZERO = SignedBlade(0, ())


def grade(a: Blade) -> int:
    """Number of generators in the blade."""
    return len(a)


def index_error(index: int | str, prev: int) -> str | None:
    """Why ``index`` cannot follow ``prev`` in a canonical blade, else None.

    ``prev`` is the index before it in the blade, 0 for the first.  Every
    front end checks indices with this rule and raises its own error type.
    A parser passes the digits of a literal with more significant digits
    than MAX_INDEX as a str, out of range unconverted (``int()`` refuses
    more than 4300 digits).
    """
    if isinstance(index, str) or index < 1 or index > MAX_INDEX:
        return f"blade index {index} outside 1..{MAX_INDEX}"
    if index <= prev:
        return "blade indices must be strictly increasing"
    return None


def validate_blade(a: Iterable[int]) -> Blade:
    """Check canonical form and bounds, returning the blade as a tuple."""
    blade = tuple(a)
    prev = 0
    for i in blade:
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError(f"blade index must be int, got {i!r}")
        error = index_error(i, prev)
        if error:
            raise ValueError(f"{error}, got {blade}")
        prev = i
    return blade


def canonicalize(indices: Iterable[int]) -> SignedBlade:
    """Sort a raw index sequence into canonical form, tracking parity.

    The sign is (-1) per transposition needed to sort the sequence.  A
    repeated index is rejected: resolving e_i e_i needs a metric, and blade
    construction is metric-free.
    """
    raw = list(indices)
    for i in raw:
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError(f"blade index must be int, got {i!r}")
        error = index_error(i, 0)
        if error:
            raise ValueError(error)
    # the sign is that of the wedge of the generators in the order given;
    # wedging e_i on the right gives 0 when i is already in the key
    sign = 1
    key = 0
    for i in raw:
        factor, key = mask_product(key, 1 << (i - 1), 0, 0)
        if not factor:
            raise ValueError(f"duplicate index {i} in blade {raw}")
        sign *= factor
    return SignedBlade(sign, key_blade(key))


#: Int keys below this bound (indices up to 12) read their prefix parity from
#: a table, :data:`_PREFIX_PARITY`.
_PREFIX_BOUND = 1 << 12


def sign_factors(a, pos, neg, width: int):
    """(parity, dead): the masks that give the sign of ``a`` times any blade.

    Bit j of ``parity`` is set when ``a`` has an odd number of bits above j
    (moving a generator of b at position j left past a takes one
    transposition per such bit), xor-ed with the generators of ``a`` squaring
    to -1; ``dead`` holds those squaring to 0.  ``pos``/``neg`` mark the
    generators squaring to +1/-1 (see
    :func:`~cliffcalc.metric.signature_masks`); 0 and 0 give the wedge.
    ``width`` bounds the bit length of ``a``.  An int key below
    ``_PREFIX_BOUND`` reads its prefix parity from a table; wider keys, and
    numpy uint64 arrays (elementwise, which is how the packed kernel takes
    the same sign), take one shift-xor round per doubling of ``width``.
    """
    if type(a) is int and a < _PREFIX_BOUND:
        parity = _PREFIX_PARITY[a]
    else:
        parity = a >> 1
        shift = 1
        while shift < width:
            parity ^= parity >> shift
            shift <<= 1
    return parity ^ (a & neg), a & ~(pos | neg)


#: The prefix parity of every key below ``_PREFIX_BOUND``, taken by the
#: shift-xor rounds of :func:`sign_factors` on an array of those keys.
_PREFIX_PARITY = tuple(
    sign_factors(np.arange(_PREFIX_BOUND, dtype=np.uint64), np.uint64(0), np.uint64(0), 12)[0].tolist()
)


def pair_sign(parity: int, dead: int, b: int) -> int:
    """Sign (-1, 0 or 1) of the product of a blade key with ``b``.

    ``parity`` and ``dead`` are the :func:`sign_factors` of the left key
    ``a``; the sign is 0 when the blades share a generator squaring to 0.
    The product's key is ``a ^ b`` whatever the sign, so callers that need
    it take it themselves, and only for a nonzero sign.
    """
    if dead & b:
        return 0
    return -1 if (parity & b).bit_count() & 1 else 1


def mask_product(a: int, b: int, pos: int, neg: int) -> tuple[int, int]:
    """(sign, key) of one product of blade keys (see :func:`sign_factors`)."""
    parity, dead = sign_factors(a, pos, neg, a.bit_length())
    return pair_sign(parity, dead, b), a ^ b


def blade_product(a: Blade, b: Blade, sig: Signature) -> SignedBlade:
    """Geometric product of two canonical blades under ``sig``.

    Returns sign 0 when a shared generator squares to 0.
    """
    ka, kb = blade_key(a), blade_key(b)
    pos, neg = signature_masks(sig, max(ka, kb).bit_length())
    sign, key = mask_product(ka, kb, pos, neg)
    return SignedBlade(sign, key_blade(key)) if sign else _ZERO


def blade_wedge(a: Blade, b: Blade) -> SignedBlade:
    """Wedge product of two canonical blades: zero on any shared index.

    Signature-independent by construction; the sign is the parity of
    interleaving b's indices after a's.
    """
    sign, key = mask_product(blade_key(a), blade_key(b), 0, 0)
    return SignedBlade(sign, key_blade(key)) if sign else _ZERO


def blade_key(a: Blade) -> int:
    """Canonical ordering key: the bitmask with bit i-1 set per index i.

    Ascending key order puts the scalar first, then e_1, e_2, e_12, e_3, ...,
    i.e. the lowest index varies fastest.  Python integers are unbounded, so
    the key works for any index up to MAX_INDEX.
    """
    key = 0
    for i in a:
        key |= 1 << (i - 1)
    return key


def key_blade(key: int) -> Blade:
    """The canonical index tuple of a blade key (inverse of :func:`blade_key`)."""
    indices = []
    while key:
        low = key & -key
        indices.append(low.bit_length())
        key ^= low
    return tuple(indices)
