"""Metric signatures for Clifford algebras Cl(p,q).

A :class:`Signature` fixes the square of every generator: the first ``p``
generators square to +1, the next ``q`` to -1, and anything beyond ``p+q``
squares to 0.  Either count may be :data:`UNBOUNDED`, which is ``math.inf``:
it compares above every int, so the region rules need no case of their own.
``Signature(UNBOUNDED, 0)`` is the positive-definite (Euclidean) metric on
arbitrarily many generators and ``Signature(p)`` (with ``q`` defaulting to
unbounded) makes every generator past ``p`` square to -1.  An unbounded count
shows as ``inf``: ``Signature(7)`` is ``Signature(p=7, q=inf)``.

Multivectors never carry a signature; all metric-dependent products take one
explicitly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

#: An unbounded generator count.  A :class:`Signature` normalizes every
#: infinite count to this one object, so an identity check finds it.
UNBOUNDED = math.inf

#: A generator count: a finite non-negative integer or UNBOUNDED.
Count = int | float


def _normalize_count(value, name: str) -> Count:
    if isinstance(value, float) and value == UNBOUNDED:
        return UNBOUNDED
    # any integer type but bool counts (numpy's too), stored as a plain int so
    # that repr, hash and == match the same count given as an int
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be a non-negative int or UNBOUNDED, got {value!r}")
    count = operator.index(value)
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    return count


@dataclass(frozen=True)
class Signature:
    """Diagonal metric (p, q): +1 on the first p generators, -1 on the next q.

    ``Signature(p)`` leaves ``q`` unbounded, so every generator beyond ``p``
    squares to -1; ``Signature(p, q)`` makes generators beyond ``p+q`` square
    to 0.  ``float('inf')`` is accepted for either count and normalized to
    :data:`UNBOUNDED`; a count of any integer type (``numpy.int64`` too, but
    not ``bool``) is stored as a plain ``int``.
    """

    p: Count
    q: Count = UNBOUNDED

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _normalize_count(self.p, "p"))
        object.__setattr__(self, "q", _normalize_count(self.q, "q"))


def euclidean() -> Signature:
    """The default metric: every generator squares to +1."""
    return Signature(UNBOUNDED, 0)


def grassmann() -> Signature:
    """The all-null metric: every generator squares to 0 (wedge behaviour)."""
    return Signature(0, 0)


def generator_square(sig: Signature, i: int) -> int:
    """Square of generator ``i`` under ``sig``: +1, -1 or 0.

    ``i`` is 1-based.  The index line splits into three regions at ``p`` and
    ``p+q``; an unbounded ``p`` absorbs everything into the +1 region, an
    unbounded ``q`` absorbs everything past ``p`` into the -1 region.
    """
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    if i <= sig.p:
        return 1
    # i - p, not p + q: an int past the float range plus inf overflows
    if i - sig.p <= sig.q:
        return -1
    return 0


def signature_masks(sig: Signature, width: int) -> tuple[int, int]:
    """(pos, neg) bitmasks of the generators 1..width squaring to +1 and -1.

    Bit i-1 stands for generator i, as in a blade key.  The region ends are
    clamped to ``width`` before shifting, so a huge finite ``p`` or ``q``
    costs no more than ``width`` bits.
    """
    p, q = sig.p, sig.q
    if p > width:
        p = width
    end = width if p + q > width else p + q
    pos = (1 << p) - 1
    return pos, ((1 << end) - 1) ^ pos
