import itertools
import math

import pytest

from cliffcalc.rand import RandomSpec, SplitMix64, _available_blades, random_multivector


def test_splitmix64_reference_vector():
    # published test vector for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_bounded_draws():
    rng = SplitMix64(123)
    draws = [rng.next_below(10) for _ in range(100)]
    assert all(0 <= d < 10 for d in draws)
    with pytest.raises(ValueError):
        rng.next_below(0)


def test_same_seed_same_multivector():
    spec = RandomSpec(seed=987654321)
    assert random_multivector(spec) == random_multivector(spec)


def test_different_seeds_differ():
    assert random_multivector(RandomSpec(seed=1)) != random_multivector(RandomSpec(seed=2))


def test_frozen_default_spec_output():
    # pinned: any change to the draw sequence is a breaking change
    mv = random_multivector(RandomSpec(seed=42))
    assert dict(mv.terms()) == {
        (1, 2, 3, 5): 1.0,
        (2, 3, 4, 5): -2.0,
        (1, 3, 4, 6): -3.0,
        (1, 2, 5, 6): 5.0,
        (1, 3, 5, 6): 1.0,
        (2, 3, 5, 6): 2.0,
        (1, 4, 5, 6): 1.0,
        (2, 4, 5, 6): -3.0,
        (3, 4, 5, 6): -3.0,
    }


def test_frozen_include_fewer_output():
    mv = random_multivector(
        RandomSpec(dimension=7, max_grade=5, include_fewer=True, seed=7)
    )
    assert dict(mv.terms()) == {
        (): 3.0,
        (2, 3): -2.0,
        (1, 3, 4): 3.0,
        (1, 4, 6): 1.0,
        (7,): 1.0,
        (1, 2, 4, 7): -5.0,
        (2, 4, 6, 7): -5.0,
        (1, 3, 4, 6, 7): 1.0,
        (5, 6, 7): -5.0,
    }


def test_fixed_grade_contract():
    for seed in range(20):
        mv = random_multivector(RandomSpec(seed=seed))
        assert mv.grades() == [4] * mv.num_terms()
        assert mv.num_terms() == 9


def test_include_fewer_contract():
    for seed in range(20):
        mv = random_multivector(
            RandomSpec(dimension=7, max_grade=5, include_fewer=True, seed=seed)
        )
        assert max(mv.grades()) <= 5
        assert mv.max_index() <= 7
        assert mv.num_terms() == 9


def test_coefficients_are_nonzero_integers_in_range():
    for seed in range(20):
        mv = random_multivector(RandomSpec(seed=seed, coeff_min=-3, coeff_max=2))
        for _, coeff in mv.terms():
            assert coeff == int(coeff)
            assert -3 <= coeff <= 2
            assert coeff != 0


def test_infeasible_spec_reduces_term_count():
    # only C(4,4) = 1 distinct grade-4 blade exists
    mv = random_multivector(RandomSpec(dimension=4, max_grade=4, num_terms=9, seed=5))
    assert mv.num_terms() == 1
    assert list(mv.blades()) == [(1, 2, 3, 4)]


def test_saturated_spec_generates_all_blades():
    spec = RandomSpec(dimension=6, max_grade=4, num_terms=15, seed=11)
    mv = random_multivector(spec)
    assert mv.num_terms() == math.comb(6, 4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dimension=0),
        dict(max_grade=0),
        dict(dimension=3, max_grade=4),
        dict(num_terms=0),
        dict(coeff_min=2, coeff_max=1),
        dict(coeff_min=0, coeff_max=0),
        dict(dimension=65536),  # above MAX_INDEX
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        RandomSpec(**kwargs)


def test_dimension_may_reach_max_index():
    mv = random_multivector(RandomSpec(dimension=65535, max_grade=3, seed=5))
    assert mv.num_terms() == 9
    assert all(len(blade) == 3 for blade in mv.blades())


def test_include_fewer_count_stops_at_num_terms(monkeypatch):
    # summing every binomial up to grade 65535 takes minutes, so the third
    # call fails at once
    calls = []
    comb = math.comb

    def counting_comb(n, k):
        calls.append(k)
        assert len(calls) <= 2, "binomials summed past num_terms"
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting_comb)
    spec = RandomSpec(dimension=65535, max_grade=65535, include_fewer=True)
    assert _available_blades(spec) == 1 + 65535


def test_term_count_is_requested_or_every_blade():
    for dimension in range(1, 9):
        for max_grade in range(1, dimension + 1):
            for include_fewer in (False, True):
                grades = range(max_grade + 1) if include_fewer else (max_grade,)
                # each partial sum over the grades, and one either side
                sums = list(itertools.accumulate(math.comb(dimension, k) for k in grades))
                every = sums[-1]
                for num_terms in sorted({n + step for n in sums for step in (-1, 0, 1)} - {0}):
                    spec = RandomSpec(dimension=dimension, max_grade=max_grade, num_terms=num_terms,
                                      include_fewer=include_fewer, seed=num_terms)
                    assert random_multivector(spec).num_terms() == min(num_terms, every), spec
