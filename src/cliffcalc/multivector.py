"""Sparse multivectors: finite maps from basis blades to coefficients.

A :class:`Multivector` stores only nonzero terms, as two parallel lists:
blade keys (see :func:`cliffcalc.blade.blade_key`) in ascending order, which
is canonical order, and their coefficients.  Index tuples appear only at its
public methods.  No key is ever hashed: a blade's coefficient is found by
bisection, and ``==`` compares the two lists.  The lists are never changed
once stored, so values may share them.  Every builder that can make a zero
or break the order sums per key in the order it lists its terms, from 0.0,
and drops the exact zeros at the end, in one of two finishers.
:func:`sum_terms` sorts (blade key, coefficient) pairs by key, and takes no
slot per possible key: the constructors, scalar ``*``, the text and file
readers, the calculator's ``+``/``-`` chains, the random generator, and
``+`` and the per-pair products while their keys' range is wide next to
their terms.  Where it is narrow (:func:`dense_slots`), ``+`` and the
per-pair products instead add each term into a list indexed by blade key,
from which :func:`from_slots`, the one slot finisher they share, builds the
value in place: a term then costs one addition, not a tuple and its place in
a sort.  Everything here is metric-free:
construction, addition, negation, scalar multiplication and the grade
machinery.  The metric-dependent products live in
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
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .blade import MAX_INDEX, Blade, blade_key, canonicalize, key_blade, validate_blade


_new = object.__new__


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

    @staticmethod
    def _wrap(keys: list[int], coeffs: list[float]) -> "Multivector":
        """Adopt blade keys and coefficients that are already in stored form.

        Every builder that sums terms passes :func:`sum_terms`'s result, or
        has :func:`from_slots` build its value.  Only builders that keep the
        order and cannot make a zero skip both: ``__neg__``, :func:`basis`,
        the packed path's terms from
        :func:`cliffcalc.kernels.packed_product`, which ``products._binary``
        wraps, and the calculator's literal terms, one
        :class:`cliffcalc.exprparse.Term` each, in
        :func:`cliffcalc.repl.eval_expr`.
        """
        # a static method with object.__new__ bound once: ~50 ns less a call
        # than a class method, a few percent of a 1x1 product
        mv = _new(Multivector)
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
        keys = self._keys + other._keys
        # dense_slots is 0 for so few terms: spare them the width (~0.1 us)
        if len(keys) > _FEW_TERMS:
            # the largest key's bit length, as in products._binary
            width = ((self._keys[-1] if self._keys else 0) | (other._keys[-1] if other._keys else 0)).bit_length()
            slots = dense_slots(width, len(keys))
            if slots:
                acc = [0.0] * slots
                for key, value in zip(keys, self._coeffs + other._coeffs):
                    acc[key] += value
                return from_slots(acc)
        return Multivector._wrap(*sum_terms(zip(keys, self._coeffs + other._coeffs)))

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
    coefficients as dropping them along the way.  Builders whose keys fit in
    few slots sum into them instead (:func:`dense_slots`,
    :func:`from_slots`), to the same bits.
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


# A sum of more than _FEW_TERMS terms goes into slots (dense_slots) while its
# keys' range holds at most _SLOTS_PER_TERM slots per term.  Both are read
# off the "slots" grid in BENCH_products.json, written by
# ``benchmarks/bench_products.py --slots``: per builder, width and slots per
# term, the time with every sum in slots over the time with every sum
# sorted.  At widths 6-10, ``+`` reads 0.77-1.00 at 2 slots per term and
# 1.04-1.38 at 3.6-4; the geometric product breaks even at 2.6-4.3 slots per
# pair, the wedge at 1-1.7 and the contractions, whose filter drops most
# pairs, at 0.25-0.8, so products.py counts a pair of theirs as half a term.
# That leaves contractions at one slot per pair at 1.03 at width 8 and
# 1.14-1.18 at width 10, a width at which the default backend sends every
# contraction of that many pairs to the kernel.  At widths 3 and 4, sums of
# 4-8 terms read 1.03-1.17 and products of up to 16 pairs 0.96-1.08, so a
# few terms always sort, as does a 1x1 product, which 64 slots cost ~1.25x.
_SLOTS_PER_TERM = 2
_FEW_TERMS = 8


def dense_slots(width: int, terms: int) -> int:
    """``1 << width`` when ``terms`` terms whose keys are all below it sum
    faster into a list indexed by key (see :func:`from_slots`) than through
    :func:`sum_terms`, else 0.

    The list costs a slot per possible key, allocated and scanned once, and
    spares each term a tuple and its place in the sort.  This rule serves
    the builders whose per-term work is Python bytecode: ``+`` and the
    per-pair products.  :func:`cliffcalc.kernels.dense_bins` is the numpy
    kernel's own rule, weighing ``bincount`` bins against ``np.unique``.
    """
    # terms * _SLOTS_PER_TERM >= 1 << width, without building a wide int
    return 1 << width if terms > _FEW_TERMS and width < (terms * _SLOTS_PER_TERM).bit_length() else 0


def from_slots(acc: list[float]) -> Multivector:
    """The multivector of ``acc``, a list of sums indexed by blade key: the
    keys of the nonzero sums, ascending, and those sums, as
    :func:`sum_terms` would give them.

    A builder that adds each term's value to its key's slot, all slots
    starting at 0.0, in the order :func:`sum_terms` would take them, gets
    the same sums bit for bit: each slot's is the same ``total + value``
    chain from 0.0.  ``compress`` drops exactly the ±0.0 sums that
    :func:`sum_terms` drops, and keeps NaN.  One scan of the slots finds the
    keys; the sums are then read at those keys, or, when they fill half the
    slots or more, taken by ``filter``, which keeps the same ones.  The
    value is built here, with no ``_wrap`` call: this is the one finisher of
    every sum in slots, ``+``'s and the per-pair products'.
    """
    keys = list(compress(range(len(acc)), acc))
    mv = _new(Multivector)
    mv._keys = keys
    # reading the sums at their keys beats a filter over every slot while
    # the keys are under half the slots
    mv._coeffs = [acc[key] for key in keys] if 2 * len(keys) < len(acc) else list(filter(None, acc))
    return mv


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
