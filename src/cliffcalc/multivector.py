"""Sparse multivectors: finite maps from basis blades to coefficients.

A :class:`Multivector` stores only nonzero terms, keyed by blade key (see
:func:`cliffcalc.blade.blade_key`) in ascending order, which is canonical
order; index tuples appear only at its public methods.  :func:`sum_terms` is
the one rule that puts (blade key, coefficient) pairs in that form, and every
builder that can make a zero or break the order ends in it: the constructors,
``+``, the per-pair products, the text and file readers, the calculator's
``+``/``-`` chains and the random generator.  Everything here is
metric-free: construction, addition, negation, scalar multiplication and the
grade machinery.  The metric-dependent products live in
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
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .blade import MAX_INDEX, Blade, blade_key, canonicalize, key_blade, validate_blade


class Multivector:
    """Immutable sparse element of a Clifford algebra.

    Supports ``+``, ``-``, unary ``-`` and multiplication by real scalars.
    Multiplying two multivectors needs a metric, so ``a * b`` is rejected;
    use :func:`cliffcalc.products.geometric_product` and friends.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Sequence[int], float] = ()):
        self._terms = sum_terms(
            (validate_blade(blade), _check_coeff(coeff))
            for blade, coeff in dict(terms).items()
        )

    @classmethod
    def _wrap(cls, terms: dict[int, float]) -> "Multivector":
        """Adopt a blade-key dict that is already in stored form.

        Every builder that sums terms passes :func:`sum_terms`'s result.  Only
        builders that keep the order and cannot make a zero skip it:
        ``__neg__``, ``grade_part``, :func:`basis`, :func:`from_scalar`, the
        packed path's terms from :func:`cliffcalc.kernels.packed_product`,
        which ``products._binary`` wraps, and the calculator's literal
        terms, one :class:`cliffcalc.exprparse.Term` each, in
        :func:`cliffcalc.repl.eval_expr`;
        scalar ``__mul__`` and :func:`as_1vector` keep the order and drop
        their own zeros.
        """
        mv = object.__new__(cls)
        mv._terms = terms
        return mv

    def terms(self) -> Iterator[tuple[Blade, float]]:
        """Iterate (blade, coefficient) pairs in canonical order."""
        return ((key_blade(key), c) for key, c in self._terms.items())

    def blades(self) -> Iterator[Blade]:
        return map(key_blade, self._terms)

    def coefficient(self, blade: Sequence[int]) -> float:
        """Coefficient of a blade, 0.0 when absent."""
        return self._terms.get(validate_blade(blade), 0.0)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def scalar_part(self) -> float:
        return self._terms.get(0, 0.0)

    def max_index(self) -> int:
        """Largest generator index used, 0 for the zero multivector."""
        # the last key is the largest, and its top bit is the largest index
        return next(reversed(self._terms), 0).bit_length()

    def grades(self) -> list[int]:
        """Multiset of term grades, ascending; one entry per stored term."""
        return sorted(key.bit_count() for key in self._terms)

    def grade_part(self, r: int) -> "Multivector":
        """Sub-multivector of terms with grade exactly ``r``."""
        if r < 0:
            raise ValueError(f"grade must be non-negative, got {r}")
        return Multivector._wrap(
            {key: c for key, c in self._terms.items() if key.bit_count() == r}
        )

    def equals_within(self, other: "Multivector", eps: float) -> bool:
        """True when all coefficients agree to within ``eps`` (absolute)."""
        for key in self._terms.keys() | other._terms.keys():
            if abs(self._terms.get(key, 0.0) - other._terms.get(key, 0.0)) > eps:
                return False
        return True

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector._wrap(sum_terms([*self._terms.items(), *other._terms.items()]))

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector._wrap({key: -c for key, c in self._terms.items()})

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
        # c * s is ±0.0 when s is, and can underflow to it; the keys keep
        # their order
        return Multivector._wrap(
            {key: v for key, c in self._terms.items() if (v := c * s)}
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

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


def sum_terms(pairs: Iterable[tuple[int, float]]) -> dict[int, float]:
    """The (blade key, coefficient) ``pairs`` as a :class:`Multivector` stores
    them, ready for ``_wrap``: per distinct key, the sum from 0.0 of its values
    in the order given, exact zeros dropped, keys ascending.

    A stable sort by key puts each key's values together in that order, so
    each run's sum is bit for bit a dict's ``get(key, 0.0) + value`` chain, and
    no key is hashed until the result dict stores it.  Builders list all their
    terms first and call this once: a sum that cancels to ±0.0 and is then
    added to equals a fresh sum from 0.0, so dropping zeros only at the end
    gives the same coefficients as dropping them along the way.
    """
    out: dict[int, float] = {}
    last = None
    total = 0.0
    for key, value in sorted(pairs, key=_KEY):
        if key != last:
            if total:
                out[last] = total
            last, total = key, 0.0
        total += value
    if total:
        out[last] = total
    return out


def zero() -> Multivector:
    return Multivector._wrap({})


def from_scalar(c: float) -> Multivector:
    """Embed a real number as a scalar term (the empty blade)."""
    c = _check_coeff(c)
    if c == 0.0:
        return Multivector._wrap({})
    return Multivector._wrap({0: c})


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
    return Multivector._wrap(sum_terms(
        (blade_key(blade), sign * _check_coeff(coeff))
        for (sign, blade), coeff in zip(map(canonicalize, blades), coeffs)
    ))


def as_1vector(v: Sequence[float]) -> Multivector:
    """Coerce a list of reals to the 1-vector sum(v[i] * e_{i+1}); more than
    MAX_INDEX entries is a ValueError."""
    if len(v) > MAX_INDEX:  # entry MAX_INDEX + 1 would have no blade
        validate_blade((MAX_INDEX + 1,))
    # enumerate yields the keys in ascending order
    return Multivector._wrap({
        blade_key((i,)): c for i, c in enumerate(map(_check_coeff, v), start=1) if c
    })


def basis(i: int) -> Multivector:
    """The basis 1-vector e_i."""
    return Multivector._wrap({validate_blade((i,)): 1.0})
