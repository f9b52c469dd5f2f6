"""Sparse multivectors: finite maps from basis blades to coefficients.

A :class:`Multivector` stores only nonzero terms, as two parallel lists:
blade keys (see :func:`cliffcalc.blade.blade_key`) in ascending order, which
is canonical order, and their coefficients.  Index tuples appear only at its
public methods.  No key is ever hashed: a blade's coefficient is found by
bisection, and ``==`` compares the two lists.  The lists are never changed
once stored, so values may share them.  :func:`sum_terms` is the one rule
that puts (blade key, coefficient) pairs in that form, and every builder
that can make a zero or break the order ends in it: the constructors, ``+``,
scalar ``*``, the per-pair products, the text and file readers, the
calculator's ``+``/``-`` chains and the random generator.  Everything here
is metric-free: construction, addition, negation, scalar multiplication and
the grade machinery.  The metric-dependent products live in
:mod:`cliffcalc.products`.

Coefficients are finite doubles: every constructor and scalar
multiplication rejects NaN and infinities, though arithmetic on finite values
can still overflow, and a product that underflows to 0.0 drops its term.
Zero pruning uses exact comparison with 0.0 so the algebraic identities stay
exact on integer inputs.  Use
:meth:`Multivector.equals_within` for approximate comparison of floating
results.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .blade import MAX_INDEX, Blade, blade_key, canonicalize, key_blade, validate_blade


class Multivector:
    """Immutable sparse element of a Clifford algebra.

    Supports ``+``, ``-``, unary ``-`` and multiplication by real scalars.
    Multiplying two multivectors needs a metric, so ``a * b`` is rejected;
    use :func:`cliffcalc.products.geometric_product` and friends.
    """

    __slots__ = ("_keys", "_coeffs")

    def __init__(self, terms: Mapping[Sequence[int], float] = ()):
        self._keys, self._coeffs = sum_terms(
            (validate_blade(blade), _check_coeff(coeff))
            for blade, coeff in dict(terms).items()
        )

    @classmethod
    def _wrap(cls, keys: list[int], coeffs: list[float]) -> "Multivector":
        """Adopt blade keys and coefficients that are already in stored form.

        Every builder that sums terms passes :func:`sum_terms`'s result.  Only
        builders that keep the order and cannot make a zero skip it:
        ``__neg__``, :func:`basis`, the packed path's terms from
        :func:`cliffcalc.kernels.packed_product`, which ``products._binary``
        wraps, and the calculator's literal terms, one
        :class:`cliffcalc.exprparse.Term` each, in
        :func:`cliffcalc.repl.eval_expr`.
        """
        mv = object.__new__(cls)
        mv._keys = keys
        mv._coeffs = coeffs
        return mv

    def terms(self) -> Iterator[tuple[Blade, float]]:
        """Iterate (blade, coefficient) pairs in canonical order."""
        return zip(map(key_blade, self._keys), self._coeffs)

    def blades(self) -> Iterator[Blade]:
        return map(key_blade, self._keys)

    def coefficient(self, blade: Sequence[int]) -> float:
        """Coefficient of a blade, 0.0 when absent."""
        return self._coefficient(validate_blade(blade))

    def _coefficient(self, key: int) -> float:
        keys = self._keys
        at = bisect_left(keys, key)
        return self._coeffs[at] if at < len(keys) and keys[at] == key else 0.0

    def num_terms(self) -> int:
        return len(self._keys)

    def is_zero(self) -> bool:
        return not self._keys

    def scalar_part(self) -> float:
        # the scalar's key, 0, is the smallest
        return self._coeffs[0] if self._keys and not self._keys[0] else 0.0

    def max_index(self) -> int:
        """Largest generator index used, 0 for the zero multivector."""
        # the last key is the largest, and its top bit is the largest index
        return self._keys[-1].bit_length() if self._keys else 0

    def grades(self) -> list[int]:
        """Multiset of term grades, ascending; one entry per stored term."""
        return sorted(key.bit_count() for key in self._keys)

    def grade_part(self, r: int) -> "Multivector":
        """Sub-multivector of terms with grade exactly ``r``."""
        if r < 0:
            raise ValueError(f"grade must be non-negative, got {r}")
        return Multivector._wrap(*sum_terms(t for t in zip(self._keys, self._coeffs) if t[0].bit_count() == r))

    def equals_within(self, other: "Multivector", eps: float) -> bool:
        """True when all coefficients agree to within ``eps`` (absolute)."""
        for key in (*self._keys, *other._keys):
            if abs(self._coefficient(key) - other._coefficient(key)) > eps:
                return False
        return True

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector._wrap(*sum_terms(zip(self._keys + other._keys, self._coeffs + other._coeffs)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector._wrap(self._keys, [-c for c in self._coeffs])

    def __mul__(self, scalar):
        if isinstance(scalar, Multivector):
            raise TypeError(
                "multiplying two multivectors needs a metric; use "
                "cliffcalc.products.geometric_product(a, b, sig)"
            )
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        s = float(scalar)
        if not math.isfinite(s):
            raise ValueError(f"scalar must be finite, got {s!r}")
        # c * s is ±0.0 when s is, and can underflow to it: sum_terms drops
        # those, and each other sum is its one value
        return Multivector._wrap(*sum_terms(zip(self._keys, [c * s for c in self._coeffs])))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._keys == other._keys and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(zip(self._keys, self._coeffs)))

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __str__(self) -> str:
        from .textio import render

        return render(self)

    def __repr__(self) -> str:
        body = ", ".join(f"{blade}: {c!r}" for blade, c in self.terms())
        return f"Multivector({{{body}}})"


def _check_coeff(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"coefficient must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"coefficient must be finite, got {value!r}")
    return value


# the sort key of a (key, value) pair
_KEY = itemgetter(0)


def sum_terms(pairs: Iterable[tuple[int, float]]) -> tuple[list[int], list[float]]:
    """The (blade key, coefficient) ``pairs`` as a :class:`Multivector` stores
    them, ready for ``_wrap``: per distinct key, the sum from 0.0 of its values
    in the order given, exact zeros dropped, keys ascending, as a list of keys
    and a list of their sums.

    A stable sort by key puts each key's values together in that order, so
    each run's sum is bit for bit a running ``total + value`` chain from 0.0,
    and no key is ever hashed.  Builders list all their terms first and call
    this once: a sum that cancels to ±0.0 and is then added to equals a fresh
    sum from 0.0, so dropping zeros only at the end gives the same
    coefficients as dropping them along the way.
    """
    keys, coeffs = [], []
    last, total = None, 0.0
    for key, value in sorted(pairs, key=_KEY):
        if key != last:
            if total:
                keys.append(last)
                coeffs.append(total)
            last, total = key, 0.0
        total += value
    if total:
        keys.append(last)
        coeffs.append(total)
    return keys, coeffs


def zero() -> Multivector:
    return Multivector._wrap([], [])


def from_scalar(c: float) -> Multivector:
    """Embed a real number as a scalar term (the empty blade)."""
    return Multivector._wrap(*sum_terms([(0, _check_coeff(c))]))


def from_terms(blades: Iterable[Sequence[int]], coeffs: Iterable[float]) -> Multivector:
    """Build a multivector from parallel lists of index-lists and coefficients.

    Index-lists need not be sorted; sorting applies the permutation parity to
    the coefficient.  An index repeated inside one list is rejected (resolving
    it would need a metric).  Duplicate blades across entries are summed and
    exact zeros pruned.
    """
    blades = list(blades)
    coeffs = list(coeffs)
    if len(blades) != len(coeffs):
        raise ValueError(
            f"got {len(blades)} index-lists but {len(coeffs)} coefficients"
        )
    return Multivector._wrap(*sum_terms(
        (blade_key(blade), sign * _check_coeff(coeff))
        for (sign, blade), coeff in zip(map(canonicalize, blades), coeffs)
    ))


def as_1vector(v: Sequence[float]) -> Multivector:
    """Coerce a list of reals to the 1-vector sum(v[i] * e_{i+1}); more than
    MAX_INDEX entries is a ValueError."""
    if len(v) > MAX_INDEX:  # entry MAX_INDEX + 1 would have no blade
        validate_blade((MAX_INDEX + 1,))
    # e_{i+1}'s key is 1 << i
    return Multivector._wrap(*sum_terms((1 << i, c) for i, c in enumerate(map(_check_coeff, v))))


def basis(i: int) -> Multivector:
    """The basis 1-vector e_i."""
    return Multivector._wrap([validate_blade((i,))], [1.0])
