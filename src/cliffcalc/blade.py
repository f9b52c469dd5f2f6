"""Basis blades, their bitmask keys and the signed product of two blades.

A blade is a product of distinct generators e_i1 ... e_ik.  At the public
boundary it is a canonical tuple: strictly increasing 1-based indices, the
empty tuple being the unit scalar.  Inside the library it is its blade key,
an int with bit i-1 set per index i (the bitmap representation of Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science*, ch. 19).  The
product of keys a and b is the blade ``a ^ b`` with a sign of two factors:

* (-1) per transposition that sorts the concatenation: the parity of
  ``prefix_parity(a) & b``;
* the square of each shared generator: 0 if any squares to 0, else (-1) per
  shared generator squaring to -1, folded into the same parity as ``a & neg``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


def validate_blade(a: Iterable[int]) -> Blade:
    """Check canonical form and bounds, returning the blade as a tuple."""
    blade = tuple(a)
    prev = 0
    for i in blade:
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError(f"blade index must be int, got {i!r}")
        if i < 1 or i > MAX_INDEX:
            raise ValueError(f"blade index {i} outside 1..{MAX_INDEX}")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got {blade}")
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
        if i < 1 or i > MAX_INDEX:
            raise ValueError(f"blade index {i} outside 1..{MAX_INDEX}")
    inversions = 0
    for k in range(len(raw)):
        for m in range(k + 1, len(raw)):
            if raw[k] > raw[m]:
                inversions += 1
            elif raw[k] == raw[m]:
                raise ValueError(f"duplicate index {raw[k]} in blade {raw}")
    return SignedBlade(-1 if inversions & 1 else 1, tuple(sorted(raw)))


def prefix_parity(a: int) -> int:
    """Mask whose bit j is set when ``a`` has an odd number of bits above j.

    Moving a generator of b at position j left past a takes one
    transposition per bit of a above j, so ``prefix_parity(a) & b`` has the
    parity of the whole reordering.
    """
    m = a >> 1
    shift = 1
    width = m.bit_length()
    while shift < width:
        m ^= m >> shift
        shift <<= 1
    return m


def mask_product(a: int, b: int, pos: int, neg: int) -> tuple[int, int]:
    """(sign, key) of the geometric product of blade keys ``a`` and ``b``.

    ``pos``/``neg`` mark the generators squaring to +1/-1 (see
    :func:`~cliffcalc.metric.signature_masks`); any other shared generator
    squares to 0 and makes the sign 0.
    """
    if a & b & ~(pos | neg):
        return 0, 0
    return (-1 if ((prefix_parity(a) ^ (a & neg)) & b).bit_count() & 1 else 1), a ^ b


def mask_wedge(a: int, b: int) -> tuple[int, int]:
    """(sign, key) of the wedge product of blade keys: sign 0 if they share a bit."""
    if a & b:
        return 0, 0
    return (-1 if (prefix_parity(a) & b).bit_count() & 1 else 1), a | b


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
    sign, key = mask_wedge(blade_key(a), blade_key(b))
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
