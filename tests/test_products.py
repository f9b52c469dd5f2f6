import itertools

import pytest
from hypothesis import given, settings

from cliffcalc import (
    Multivector,
    Signature,
    as_1vector,
    basis,
    euclidean,
    from_scalar,
    from_terms,
    generator_square,
    geometric_product,
    grassmann,
    left_contraction,
    power,
    right_contraction,
    wedge,
    zero,
)
from tests.oracle import contraction_by_definition, product_by_rewriting
from tests.strategies import corpus_triples, multivectors

SIGNATURES = [euclidean(), Signature(3, 1), Signature(1, 1), grassmann(), Signature(7)]


def section2_x():
    return from_terms([[], [1], [2], [2, 3]], [1, 2, 3, 4])


# --- geometric product goldens ---------------------------------------------

def test_square_of_inhomogeneous_element():
    x = section2_x()
    expected = from_terms(
        [[], [1], [2], [2, 3], [1, 2, 3]], [-2, 4, 6, 8, 16]
    )
    assert geometric_product(x, x, euclidean()) == expected


def test_vector_times_inhomogeneous_element():
    z = as_1vector(range(1, 8))
    x = section2_x()
    expected = from_terms(
        [
            [], [1], [2], [1, 2], [3], [1, 3], [2, 3], [1, 2, 3],
            [4], [1, 4], [2, 4], [2, 3, 4],
            [5], [1, 5], [2, 5], [2, 3, 5],
            [6], [1, 6], [2, 6], [2, 3, 6],
            [7], [1, 7], [2, 7], [2, 3, 7],
        ],
        [
            8, 1, -10, -1, 11, -6, -9, 4,
            4, -8, -12, 16,
            5, -10, -15, 20,
            6, -12, -18, 24,
            7, -14, -21, 28,
        ],
    )
    assert geometric_product(z, x, euclidean()) == expected


def test_unit_scalar_is_identity():
    x = section2_x()
    assert geometric_product(x, from_scalar(1), euclidean()) == x
    assert geometric_product(from_scalar(1), x, Signature(2, 2)) == x


HIGH_DIM_X = from_terms([[], [1, 2, 3], [1, 5, 7, 8, 10]], [2, 4, -10])
HIGH_DIM_Y = from_terms(
    [[], [1, 2, 3, 7], [1, 4, 6, 7], [1, 5, 6, 8]], [-1, 4, -3, 1]
)
# Full product in Cl(7,3); every coefficient independently verified by the
# term-rewriting oracle (see test_high_dim_product_matches_oracle).
HIGH_DIM_EXPECTED = from_terms(
    [
        [], [1, 2, 3], [7], [1, 2, 3, 7], [1, 4, 6, 7], [2, 3, 4, 6, 7],
        [1, 5, 6, 8], [2, 3, 5, 6, 8], [6, 7, 10], [2, 3, 5, 8, 10],
        [4, 5, 6, 8, 10], [1, 5, 7, 8, 10],
    ],
    [-2, -4, -16, 8, -6, -12, 2, 4, -10, -40, -30, 10],
)


def test_high_dimensional_product():
    result = geometric_product(HIGH_DIM_X, HIGH_DIM_Y, Signature(7))
    assert result == HIGH_DIM_EXPECTED


def test_high_dim_product_matches_oracle():
    assert product_by_rewriting(HIGH_DIM_X, HIGH_DIM_Y, Signature(7)) == HIGH_DIM_EXPECTED


# --- wedge ------------------------------------------------------------------

def test_wedge_golden():
    x = from_terms([[1, 2, 3], [2, 3, 7]], [3, 4])
    y = from_terms([[1, 2, 3], [1, 4, 5], [4, 5, 6]], [1, 2, 3])
    expected = from_terms(
        [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7], [2, 3, 4, 5, 6, 7]],
        [9, -8, -12],
    )
    assert wedge(x, y) == expected


def test_vector_self_wedge_vanishes():
    v = as_1vector([3, -2, 7, 1])
    assert wedge(v, v).is_zero()


@given(a=multivectors(), b=multivectors())
def test_wedge_equals_null_signature_product(a, b):
    assert wedge(a, b) == geometric_product(a, b, grassmann())


def test_homogeneous_wedge_symmetry():
    for r in range(4):
        for s in range(4):
            a = _homogeneous(r, seed_offset=0)
            b = _homogeneous(s, seed_offset=100)
            lhs = wedge(a, b)
            rhs = (-1.0) ** (r * s) * wedge(b, a)
            assert lhs == rhs


def _homogeneous(grade, seed_offset):
    blades = list(itertools.combinations(range(1, 7), grade))[:4]
    coeffs = [((seed_offset + k) % 7) - 3 or 1 for k in range(len(blades))]
    return from_terms(blades, coeffs)


# --- contractions -----------------------------------------------------------

def test_left_contraction_examples():
    e1, e2 = basis(1), basis(2)
    e12 = geometric_product(e1, e2, euclidean())
    assert left_contraction(e2, e12, euclidean()) == from_terms([[1]], [-1])
    inner = left_contraction(e2, e1, euclidean())
    assert inner.is_zero()
    assert geometric_product(inner, e2, euclidean()).is_zero()


def test_scalar_acts_as_identity_on_contractions():
    x = section2_x()
    assert left_contraction(from_scalar(1), x, euclidean()) == x
    assert right_contraction(x, from_scalar(1), euclidean()) == x


def test_right_contraction_examples():
    e12 = from_terms([[1, 2]], [1])
    # e_12 |_ e_2 keeps grade 1: e_1 e_2 e_2 = e_1
    assert right_contraction(e12, basis(2), euclidean()) == basis(1)
    assert contraction_by_definition(e12, basis(2), euclidean(), "right") == basis(1)
    # negative target grade contributes nothing
    assert right_contraction(basis(1), e12, euclidean()).is_zero()
    assert contraction_by_definition(basis(1), e12, euclidean(), "left") == left_contraction(
        basis(1), e12, euclidean()
    )


@pytest.mark.parametrize("sig", [euclidean(), Signature(3, 1), grassmann()])
def test_contractions_match_grade_projection_definition(sig):
    for a, b, _ in corpus_triples(25, include_fewer=True):
        assert left_contraction(a, b, sig) == contraction_by_definition(a, b, sig, "left")
        assert right_contraction(a, b, sig) == contraction_by_definition(a, b, sig, "right")


def test_contraction_grade_law():
    for r in range(4):
        for s in range(4):
            a = _homogeneous(r, seed_offset=7)
            b = _homogeneous(s, seed_offset=30)
            result = left_contraction(a, b, Signature(3, 1))
            assert result.is_zero() or result.grades() == [s - r] * result.num_terms()


@pytest.mark.parametrize("sig", [euclidean(), Signature(3, 1), grassmann()])
def test_chisholm_identities(sig):
    for a, b, c in corpus_triples(50, include_fewer=True):
        assert left_contraction(a, right_contraction(b, c, sig), sig) == right_contraction(
            left_contraction(a, b, sig), c, sig
        )
        assert left_contraction(a, left_contraction(b, c, sig), sig) == left_contraction(
            wedge(a, b), c, sig
        )
        assert right_contraction(a, wedge(b, c), sig) == right_contraction(
            right_contraction(a, b, sig), c, sig
        )


# --- power ------------------------------------------------------------------

def test_power_examples():
    assert power(basis(53), 2, euclidean()) == from_scalar(1)
    assert power(basis(5), 2, grassmann()).is_zero()
    x = section2_x()
    assert power(x, 1, euclidean()) == x
    assert power(x, 0, euclidean()) == from_scalar(1)
    assert power(x, 3, euclidean()) == geometric_product(
        geometric_product(x, x, euclidean()), x, euclidean()
    )


def test_power_rejects_bad_exponents():
    with pytest.raises(ValueError):
        power(basis(1), -1, euclidean())
    with pytest.raises(TypeError):
        power(basis(1), 1.5, euclidean())


# --- algebra laws -----------------------------------------------------------

@settings(max_examples=60)
@given(a=multivectors(max_terms=4), b=multivectors(max_terms=4), c=multivectors(max_terms=4))
def test_product_distributes(a, b, c):
    sig = Signature(3, 1)
    assert geometric_product(a, b + c, sig) == geometric_product(a, b, sig) + geometric_product(a, c, sig)
    assert geometric_product(a + b, c, sig) == geometric_product(a, c, sig) + geometric_product(b, c, sig)


@settings(max_examples=40)
@given(a=multivectors(max_terms=4), b=multivectors(max_terms=4), c=multivectors(max_terms=4))
def test_product_associates(a, b, c):
    for sig in (euclidean(), Signature(1, 1), grassmann()):
        left = geometric_product(geometric_product(a, b, sig), c, sig)
        right = geometric_product(a, geometric_product(b, c, sig), sig)
        assert left == right


def test_generator_relations():
    for sig in SIGNATURES:
        for i in range(1, 7):
            for j in range(1, 7):
                anti = geometric_product(basis(i), basis(j), sig) + geometric_product(
                    basis(j), basis(i), sig
                )
                if i == j:
                    assert anti == from_scalar(2 * generator_square(sig, i))
                else:
                    assert anti.is_zero()


@pytest.mark.parametrize("sig", [euclidean(), Signature(3, 1), Signature(2, 2)])
def test_product_matches_rewriting_oracle_on_random_elements(sig):
    for a, b, _ in corpus_triples(25, include_fewer=True):
        assert geometric_product(a, b, sig) == product_by_rewriting(a, b, sig)


def test_zero_operands():
    x = section2_x()
    for op in (
        lambda u, v: geometric_product(u, v, euclidean()),
        wedge,
        lambda u, v: left_contraction(u, v, euclidean()),
        lambda u, v: right_contraction(u, v, euclidean()),
    ):
        assert op(zero(), x).is_zero()
        assert op(x, zero()).is_zero()


def test_large_index_products_use_general_path():
    e100 = basis(100)
    assert geometric_product(e100, e100, euclidean()) == from_scalar(1)
    assert geometric_product(e100, e100, Signature(7)) == from_scalar(-1)
    mixed = geometric_product(e100 + basis(1), e100 + basis(2), euclidean())
    assert mixed == Multivector(
        {(): 1.0, (1, 2): 1.0, (1, 100): 1.0, (2, 100): -1.0}
    )
    assert wedge(e100, basis(65)) == Multivector({(65, 100): -1.0})
    assert left_contraction(e100, Multivector({(3, 100): 1.0}), euclidean()) == -basis(3)


# --- the per-pair path on wide keys ----------------------------------------

HUGE = 10**18


def seeded_multivector(rng, indices, num_terms, floats):
    """Distinct random blades of grade 0..4 over ``indices``."""
    terms = {}
    while len(terms) < num_terms:
        blade = tuple(sorted(rng.sample(indices, rng.randint(0, 4))))
        terms[blade] = rng.uniform(-2, 2) if floats else float(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Multivector(terms)


@pytest.mark.parametrize(
    "indices,sig",
    [
        # p and p+q boundaries inside the index range, and counts too large
        # to shift by
        (range(58, 73), Signature(60, 6)),
        (range(58, 73), Signature(64, 2)),
        (range(58, 73), Signature(66)),
        (range(58, 73), Signature(HUGE, 3)),
        (range(58, 73), Signature(2, HUGE)),
        (range(58, 73), grassmann()),
        (range(65521, 65536), Signature(65525, 5)),
        (range(65521, 65536), Signature(65530)),
        (range(65521, 65536), Signature(HUGE, 3)),
        (range(65521, 65536), Signature(2, HUGE)),
        ([1, 2, 3, 62, 63, 64, 65, 66, 65534, 65535], Signature(63, 2)),
    ],
)
@pytest.mark.parametrize("floats", [False, True])
def test_per_pair_products_match_the_oracles(indices, sig, floats):
    import random

    from cliffcalc import kernels

    rng = random.Random(f"{indices}:{sig}:{floats}")
    previous = kernels.set_backend("python")
    try:
        for _ in range(6):
            a = seeded_multivector(rng, list(indices), rng.randint(1, 8), floats)
            b = seeded_multivector(rng, list(indices), rng.randint(1, 8), floats)
            # same pair order and the same pruning: equal bit for bit
            assert geometric_product(a, b, sig) == product_by_rewriting(a, b, sig)
            assert wedge(a, b) == product_by_rewriting(a, b, grassmann())
            for side, product in (("left", left_contraction), ("right", right_contraction)):
                expected = contraction_by_definition(a, b, sig, side)
                got = product(a, b, sig)
                if floats:
                    # the definition sums grade parts in another order
                    assert got.equals_within(expected, 1e-12)
                else:
                    assert got == expected
    finally:
        kernels.set_backend(previous)


# --- the sign table of narrow products --------------------------------------

TABLE_SIGNATURES = [euclidean(), Signature(3, 1), Signature(2, 1), grassmann(), Signature(HUGE, 3)]


def cancelling_multivector(rng, width, num_terms):
    """Up to ``num_terms`` distinct blades over the indices 1..width, one of
    them e_width, with coefficients that cancel, round or underflow."""
    from cliffcalc.blade import key_blade
    from tests.test_kernels import CANCELLING

    keys = set(rng.sample(range(1 << width), min(num_terms, 1 << width)))
    if width:
        keys.add(1 << (width - 1))
    return Multivector({key_blade(key): rng.choice(CANCELLING) for key in keys})


def terms_bits(mv):
    """Keys, order and coefficient bits of ``mv``'s terms."""
    import struct

    return [(blade, struct.pack("<d", c)) for blade, c in mv.terms()]


@pytest.mark.parametrize("sig", TABLE_SIGNATURES, ids=str)
@pytest.mark.parametrize("width", range(8))
def test_the_sign_table_the_general_loop_the_kernel_and_the_oracle_agree(monkeypatch, sig, width):
    import random

    from cliffcalc import kernels, products
    from tests.oracle import contraction_by_rewriting
    from tests.test_kernels import sum_events

    sign_calls = []

    def recording(original):
        def sign(*args):
            sign_calls.append(args)
            return original(*args)
        return sign

    monkeypatch.setattr(products, "blade_product", recording(products.blade_product))
    monkeypatch.setattr(products, "blade_wedge", recording(products.blade_wedge))
    cases = (
        (sig, kernels.FILTER_NONE, lambda a, b: product_by_rewriting(a, b, sig)),
        (None, kernels.FILTER_NONE, lambda a, b: product_by_rewriting(a, b, grassmann())),
        (sig, kernels.FILTER_LEFT, lambda a, b: contraction_by_rewriting(a, b, sig, "left")),
        (sig, kernels.FILTER_RIGHT, lambda a, b: contraction_by_rewriting(a, b, sig, "right")),
    )
    rng = random.Random(f"{sig}:{width}")
    underflows = 0
    for _ in range(12):
        a = cancelling_multivector(rng, width, rng.randint(1, 12))
        b = cancelling_multivector(rng, width, rng.randint(1, 12))
        underflows += sum_events(a, b, sig)[1]
        for product_sig, filter_mode, oracle in cases:
            del sign_calls[:]
            table = products._per_pair(a, b, product_sig, filter_mode)
            if width <= products._TABLE_WIDTH:
                assert sign_calls == []
            elif product_sig is not None and filter_mode == kernels.FILTER_NONE:
                assert len(sign_calls) == a.num_terms() * b.num_terms()
            with monkeypatch.context() as general:
                # below every product's width, the scalar ones' (0) too
                general.setattr(products, "_TABLE_WIDTH", -1)
                loop = products._per_pair(a, b, product_sig, filter_mode)
            packed = products._packed(a, b, product_sig, filter_mode)
            expected = terms_bits(oracle(a, b))
            assert terms_bits(table) == terms_bits(loop) == terms_bits(packed) == expected
    # pair products of 1e-200 reach the sums as ±0.0 in some cases
    assert width < 2 or underflows


def test_a_seven_index_product_takes_one_sign_call_per_surviving_pair(monkeypatch):
    """perfbench counts one ``products.blade_product`` call per term pair of
    its high_index products: a product past the table width still makes them."""
    from cliffcalc import kernels, products

    calls = {"blade_product": 0, "blade_wedge": 0}

    def counting(name):
        original = getattr(products, name)

        def sign(*args):
            calls[name] += 1
            return original(*args)
        return sign

    for name in calls:
        monkeypatch.setattr(products, name, counting(name))
    previous = kernels.set_backend("python")
    try:
        a = Multivector({(): 1.0, (1,): 2.0, (2, 7): -1.0, (1, 3, 5): 0.5})
        b = Multivector({(2,): 3.0, (7,): 1.0, (1, 2, 7): -2.0})
        assert max(a.max_index(), b.max_index()) == products._TABLE_WIDTH + 1
        keys_a, keys_b = list(a._terms), list(b._terms)
        geometric_product(a, b, Signature(3, 1))
        assert calls == {"blade_product": len(keys_a) * len(keys_b), "blade_wedge": 0}
        left_contraction(a, b, euclidean())
        kept = sum(ka & kb == ka for ka in keys_a for kb in keys_b)
        assert calls == {"blade_product": len(keys_a) * len(keys_b) + kept, "blade_wedge": 0}
        wedge(a, b)
        disjoint = sum(not ka & kb for ka in keys_a for kb in keys_b)
        assert calls["blade_wedge"] == disjoint
        # indices up to the table width take no call at all
        narrow = Multivector({(1,): 1.0, (2, 6): 2.0})
        geometric_product(narrow, narrow, Signature(3, 1))
        wedge(narrow, narrow)
        assert calls["blade_wedge"] == disjoint
        assert calls["blade_product"] == len(keys_a) * len(keys_b) + kept
    finally:
        kernels.set_backend(previous)
