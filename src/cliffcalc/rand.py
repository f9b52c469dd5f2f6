"""Deterministic seeded generation of random multivectors.

The property-test corpus must be reproducible across platforms and
languages, so the generator is pinned to a concrete PRNG rather than any
platform default: splitmix64 (the 64-bit finalizer-based generator of
Steele, Lea & Flood), with bounded draws taken as ``next_u64() % n``.  The
draw sequence below is part of the contract; changing it changes every
generated multivector.

For each term, in order:

1. grade: ``max_grade`` when ``include_fewer`` is false, otherwise
   ``next_below(max_grade + 1)``;
2. blade: distinct indices accumulated by drawing ``1 + next_below(dimension)``
   until the blade has ``grade`` members (insertion into a set; already-present
   indices consume a draw);
3. a blade equal to one already generated discards the term and restarts at
   step 1;
4. coefficient: the value at position ``next_below(len(values))`` in the
   ascending list of nonzero integers in ``[coeff_min, coeff_max]``.

If fewer distinct blades exist than ``num_terms`` requests, the count is
reduced to what is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multivector import Multivector, canonical

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state advanced by the golden-gamma increment."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-enough draw in [0, n); modulo bias is irrelevant here."""
        if n < 1:
            raise ValueError(f"bound must be positive, got {n}")
        return self.next_u64() % n


@dataclass(frozen=True)
class RandomSpec:
    """Shape of a random multivector: dimension, grades, term count, coefficients."""

    dimension: int = 6
    max_grade: int = 4
    num_terms: int = 9
    include_fewer: bool = False
    coeff_min: int = -5
    coeff_max: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 1 <= self.max_grade <= self.dimension:
            raise ValueError(
                f"max_grade must be in 1..dimension, got {self.max_grade} with dimension {self.dimension}"
            )
        if self.num_terms < 1:
            raise ValueError(f"num_terms must be >= 1, got {self.num_terms}")
        if self.coeff_min > self.coeff_max:
            raise ValueError("coeff_min must not exceed coeff_max")
        if self.coeff_min == 0 and self.coeff_max == 0:
            raise ValueError("coefficient range contains no nonzero integer")


def _available_blades(spec: RandomSpec) -> int:
    if spec.include_fewer:
        return sum(math.comb(spec.dimension, k) for k in range(spec.max_grade + 1))
    return math.comb(spec.dimension, spec.max_grade)


def random_multivector(spec: RandomSpec = RandomSpec()) -> Multivector:
    """Deterministic random multivector for the given spec and seed."""
    rng = SplitMix64(spec.seed)
    coeff_values = [c for c in range(spec.coeff_min, spec.coeff_max + 1) if c != 0]
    want = min(spec.num_terms, _available_blades(spec))

    terms: dict[int, float] = {}
    while len(terms) < want:
        if spec.include_fewer:
            grade = rng.next_below(spec.max_grade + 1)
        else:
            grade = spec.max_grade
        key = 0  # draw d picks index d + 1: bit d of the blade key
        while key.bit_count() < grade:
            key |= 1 << rng.next_below(spec.dimension)
        if key in terms:
            continue
        terms[key] = float(coeff_values[rng.next_below(len(coeff_values))])
    return Multivector._wrap(canonical(terms))
