"""Shared hypothesis strategies and the seeded multivector corpus."""

from __future__ import annotations

from hypothesis import strategies as st

from cliffcalc import Multivector
from cliffcalc.rand import RandomSpec, random_multivector


def blades(max_index: int = 6, max_grade: int | None = None):
    return st.lists(
        st.integers(1, max_index),
        unique=True,
        max_size=max_grade if max_grade is not None else max_index,
    ).map(lambda ids: tuple(sorted(ids)))


#: Every nonzero finite double, for properties that must hold beyond integers.
FINITE_COEFFS = st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0)


def multivectors(max_index: int = 6, max_terms: int = 6, coeff_bound: int = 9, coeffs=None):
    """Multivectors with nonzero coefficients from ``coeffs``.

    ``coeffs`` defaults to the integers in [-coeff_bound, coeff_bound].
    """
    if coeffs is None:
        coeffs = st.integers(-coeff_bound, coeff_bound).filter(lambda c: c != 0)
    return st.dictionaries(blades(max_index), coeffs, max_size=max_terms).map(
        lambda d: Multivector({blade: float(c) for blade, c in d.items()})
    )


def corpus(n: int, start_seed: int = 0, **spec_kwargs):
    """n deterministic multivectors with consecutive seeds."""
    return [
        random_multivector(RandomSpec(seed=start_seed + k, **spec_kwargs))
        for k in range(n)
    ]


def corpus_triples(n: int, **spec_kwargs):
    """n deterministic (A, B, C) triples with disjoint seed blocks."""
    return [
        tuple(
            random_multivector(RandomSpec(seed=3 * k + offset, **spec_kwargs))
            for offset in range(3)
        )
        for k in range(n)
    ]
