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
    from tests.test_kernels import packed, sum_events

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
        (grassmann(), kernels.FILTER_NONE, lambda a, b: product_by_rewriting(a, b, grassmann())),
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
            table = products._per_pair(a, b, product_sig, filter_mode, width)
            if width <= products._TABLE_WIDTH:
                assert sign_calls == []
            elif filter_mode == kernels.FILTER_NONE:
                # one call a pair, but under the null metric only the
                # disjoint pairs reach the sign
                kept = sum(product_sig != grassmann() or not ka & kb for ka in a._terms for kb in b._terms)
                assert len(sign_calls) == kept
            with monkeypatch.context() as general:
                # below every product's width, the scalar ones' (0) too
                general.setattr(products, "_TABLE_WIDTH", -1)
                loop = products._per_pair(a, b, product_sig, filter_mode, width)
            kernel = packed(a, b, product_sig, filter_mode)
            expected = terms_bits(oracle(a, b))
            assert terms_bits(table) == terms_bits(loop) == terms_bits(kernel) == expected
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
        assert calls == {"blade_product": len(keys_a) * len(keys_b) + kept, "blade_wedge": disjoint}
        # the geometric product under the null metric is the wedge: a call
        # for each disjoint pair, and none of blade_product
        geometric_product(a, b, grassmann())
        assert calls == {"blade_product": len(keys_a) * len(keys_b) + kept, "blade_wedge": 2 * disjoint}
        # indices up to the table width take no call at all
        narrow = Multivector({(1,): 1.0, (2, 6): 2.0})
        geometric_product(narrow, narrow, Signature(3, 1))
        wedge(narrow, narrow)
        assert calls == {"blade_product": len(keys_a) * len(keys_b) + kept, "blade_wedge": 2 * disjoint}
    finally:
        kernels.set_backend(previous)


def test_the_sign_table_cache_holds_each_width_apart(monkeypatch):
    """A table built at one ``_TABLE_WIDTH`` is never read at another: the
    null masks (0, 0) are the same at widths 0 and 6, so before the width was
    part of the cache key a 6-index product read the 1x1 table."""
    from cliffcalc import products

    with monkeypatch.context() as narrow:
        narrow.setattr(products, "_TABLE_WIDTH", 0)
        assert wedge(from_scalar(2.0), from_scalar(3.0)) == from_scalar(6.0)
        assert geometric_product(from_scalar(2.0), from_scalar(3.0), grassmann()) == from_scalar(6.0)
    a = Multivector({(1,): 1.0, (2, 6): 2.0, (3, 4, 5): -1.5})
    b = Multivector({(): 0.5, (4,): 3.0, (1, 6): -2.0})
    assert wedge(a, b) == product_by_rewriting(a, b, grassmann())
    assert geometric_product(a, b, grassmann()) == product_by_rewriting(a, b, grassmann())


# --- sums in pair order -----------------------------------------------------

# 1e16 + 1.0 + 1.0 - 1e16 is 0.0 in this order and 2.0 in another; 1e-200
# squared underflows to ±0.0
ORDER_DEPENDENT = (1e16, -1e16, 1.0, 1.0, -1.0, 1e-200, -1e-200)


def chain(values):
    """The sum from 0.0 of ``values`` in the order given."""
    total = 0.0
    for value in values:
        total += value
    return total


def runs_of(pairs):
    """Per key of the (key, value) ``pairs``, its values in pair order."""
    runs = {}
    for key, value in pairs:
        runs.setdefault(key, []).append(value)
    return runs


def summed_bits(runs):
    """The sum rule, written apart from the library: each key's run summed
    by :func:`chain`, exact zeros dropped, keys ascending, as
    :func:`terms_bits` reads a result."""
    import struct

    from cliffcalc.blade import key_blade

    return [(key_blade(key), struct.pack("<d", total))
            for key in sorted(runs) if (total := chain(runs[key]))]


PAIR_ORDER_BINS = {
    # indices, and a signature with positive, negative and null generators
    # among them
    "narrow": ((1, 2, 3, 4, 5, 6), Signature(3, 2)),
    "word": ((1, 2, 7, 33, 63, 64), Signature(33, 30)),
    # 1, 62, 123 and 184 agree modulo 61, so the keys of e_1, e_62, e_123 and
    # e_184 all hash to 1
    "wide": ((1, 2, 62, 65, 123, 184), Signature(123, 60)),
}


@pytest.mark.parametrize("product", ["geometric", "wedge", "left", "right"])
@pytest.mark.parametrize("bin_name", PAIR_ORDER_BINS)
def test_per_pair_sums_run_in_pair_order(monkeypatch, bin_name, product):
    """Keys, order and coefficient bits of each product equal the pairs'
    values added in pair order (:func:`summed_bits`), and the rewriting
    oracle's result, on sums that depend on the order, collide in hash or
    cancel."""
    import random

    from cliffcalc import kernels, products
    from cliffcalc.blade import blade_key
    from tests.oracle import contraction_by_rewriting, rewrite_blade_product

    indices, sig = PAIR_ORDER_BINS[bin_name]
    run, oracle, pair_sig, keep = {
        "geometric": (lambda a, b: geometric_product(a, b, sig),
                      lambda a, b: product_by_rewriting(a, b, sig), sig, lambda x, y: True),
        "wedge": (wedge, lambda a, b: product_by_rewriting(a, b, grassmann()), grassmann(),
                  lambda x, y: True),
        "left": (lambda a, b: left_contraction(a, b, sig),
                 lambda a, b: contraction_by_rewriting(a, b, sig, "left"), sig, lambda x, y: set(x) <= set(y)),
        "right": (lambda a, b: right_contraction(a, b, sig),
                  lambda a, b: contraction_by_rewriting(a, b, sig, "right"), sig, lambda x, y: set(y) <= set(x)),
    }[product]

    # one key's pairs in pair order are 1e16, 1.0, 1.0, -1e16: 0.0, where
    # 1.0 + 1.0 + 1e16 - 1e16 is 2.0 (i, j and k square to +1 in every bin)
    i, j, k, l = indices[:4]
    ladder = Multivector({(): 1e16, (i,): 1.0, (j,): 1.0, (k,): -1e16})
    uppers = Multivector({(i, j, k): 1.0, (j, k): 1.0, (i, k): -1.0, (i, j): 1.0})
    cases = [{
        "geometric": (ladder, uppers),
        "wedge": (ladder, uppers),
        "left": (ladder, Multivector({(l,): 1.0, (i, l): 1.0, (j, l): 1.0, (k, l): 1.0})),
        "right": (Multivector({(l,): 1.0, (i, l): -1.0, (j, l): -1.0, (k, l): -1.0}), ladder),
    }[product]]
    rng = random.Random(f"{bin_name}:{product}")
    for _ in range(80):
        cases.append(tuple(Multivector({tuple(sorted(rng.sample(indices, rng.randint(0, 3)))): rng.choice(ORDER_DEPENDENT)
                                        for _ in range(rng.randint(1, 16))}) for _ in range(2)))
    seen = {"order": 0, "zero": 0, "collision": 0}
    previous = kernels.set_backend("python")
    try:
        for a, b in cases:
            pairs = []
            for blade_a, ca in a.terms():
                for blade_b, cb in b.terms():
                    sign, blade = rewrite_blade_product(blade_a, blade_b, pair_sig)
                    if sign and keep(blade_a, blade_b):
                        pairs.append((blade_key(blade), ca * cb * sign))
            runs = runs_of(pairs)
            seen["order"] += sum(chain(values) != chain(sorted(values, key=abs)) for values in runs.values())
            seen["zero"] += sum(chain(values) == 0.0 for values in runs.values())
            seen["collision"] += len(runs) - len(set(map(hash, runs)))
            expected = summed_bits(runs)
            assert terms_bits(run(a, b)) == expected == terms_bits(oracle(a, b))
            with monkeypatch.context() as folding:
                # fold the pair list before every left term
                folding.setattr(products, "_PAIRS_HELD", 0)
                assert terms_bits(run(a, b)) == expected
    finally:
        kernels.set_backend(previous)
    assert seen["order"] and seen["zero"]
    assert bin_name != "wide" or seen["collision"]


def test_a_long_per_pair_product_folds_its_pairs(monkeypatch):
    """Past ``_PAIRS_HELD`` pairs ``_pairs`` folds its list into one pair per
    key, so it holds about the result's size, and the sums stay the same
    chains: equal bit for bit to the oracle's."""
    import random

    from cliffcalc import kernels, products

    sizes = []
    original = products.sum_terms

    def recording(pairs):
        sizes.append(len(pairs))
        return original(pairs)

    monkeypatch.setattr(products, "sum_terms", recording)
    monkeypatch.setattr(products, "_PAIRS_HELD", 64)
    rng = random.Random(20)
    a, b = (cancelling_multivector(rng, 8, 40) for _ in range(2))
    sig = Signature(5, 2)
    previous = kernels.set_backend("python")
    try:
        got = geometric_product(a, b, sig)
    finally:
        kernels.set_backend(previous)
    assert terms_bits(got) == terms_bits(product_by_rewriting(a, b, sig))
    assert a.num_terms() * b.num_terms() > 10 * 64 and len(sizes) > 3
    assert max(sizes) <= max(64, 2 * got.num_terms()) + b.num_terms()


def drawn_terms(spec):
    """The (blade key, coefficient) pairs that ``random_multivector`` draws,
    in draw order, following the draw sequence that :mod:`cliffcalc.rand`
    documents."""
    import math

    from cliffcalc.rand import SplitMix64

    rng = SplitMix64(spec.seed)
    values = [c for c in range(spec.coeff_min, spec.coeff_max + 1) if c]
    grades = range(spec.max_grade + 1) if spec.include_fewer else (spec.max_grade,)
    want = min(spec.num_terms, sum(math.comb(spec.dimension, g) for g in grades))
    pairs = []
    while len(pairs) < want:
        grade = rng.next_below(spec.max_grade + 1) if spec.include_fewer else spec.max_grade
        indices = set()
        while len(indices) < grade:
            indices.add(1 + rng.next_below(spec.dimension))
        key = sum(1 << (i - 1) for i in indices)
        if all(key != k for k, _ in pairs):
            pairs.append((key, float(values[rng.next_below(len(values))])))
    return pairs


# blades of one to three indices, with a digit run, a comma-form index and
# indices above 64; the indices of each are an arithmetic run
SUM_BLADES = ((), (1,), (2,), (1, 2), (3, 10), (1, 62, 123))


def spellings(blade):
    """Three distinct mapping keys that ``Multivector`` reads as ``blade``,
    one of :data:`SUM_BLADES`."""
    start = blade[0] if blade else 0
    step = blade[1] - start if len(blade) > 1 else 1
    return blade, range(start, start + step * len(blade), step), bytes(blade)


@pytest.mark.parametrize("builder", ["+", "-", "from_terms", "Multivector", "parse_multivector",
                                     "load", "calculator", "random_multivector"])
def test_every_builder_sums_by_the_one_rule(builder, tmp_path):
    """Every builder of terms other than the products stores, bit for bit,
    its terms summed per key from 0.0 in the order it takes them, exact zeros
    dropped and keys ascending (:func:`summed_bits`), on order-dependent and
    cancelling values."""
    import random

    from cliffcalc import RandomSpec, Session, eval_expr, load, parse_expr, parse_multivector, random_multivector
    from cliffcalc.blade import blade_key

    def text(terms):
        """``terms`` as one signed literal per term, blades in bracket form."""
        return " ".join(("- " if c < 0 else "+ ") + repr(abs(c)) + (f"e{list(blade)}" if blade else "")
                        for blade, c in terms)

    def build(terms):
        """The builder's value of ``terms``, and the (key, value) pairs in
        the order it sums them."""
        pairs = [(blade_key(blade), c) for blade, c in terms]
        if builder in ("+", "-"):
            # each operand holds each blade once, so only the sum sums
            a, b = (Multivector(dict(half)) for half in (terms[::2], terms[1::2]))
            sign = 1.0 if builder == "+" else -1.0
            pairs = [*a._terms.items(), *((key, sign * c) for key, c in b._terms.items())]
            return (a + b if builder == "+" else a - b), pairs
        if builder == "from_terms":
            return from_terms([blade for blade, _ in terms], [c for _, c in terms]), pairs
        if builder == "Multivector":
            # a blade's first three values go in under its three spellings
            mapping, count = {}, {}
            for blade, c in terms:
                count[blade] = count.get(blade, -1) + 1
                mapping[spellings(blade)[count[blade] % 3]] = c
            return Multivector(mapping), [(blade_key(tuple(blade)), c) for blade, c in mapping.items()]
        if builder == "parse_multivector":
            return parse_multivector(text(terms)), pairs
        if builder == "load":
            path = tmp_path / "terms.mv"
            path.write_text("".join(f"{c!r} ; {' '.join(map(str, blade))}\n" for blade, c in terms))
            return load(path), pairs
        return eval_expr(parse_expr(text(terms)), Session()), pairs

    if builder == "random_multivector":
        for seed in range(40):
            spec = RandomSpec(dimension=7, max_grade=4, num_terms=1 + seed % 12, include_fewer=seed % 2 == 1,
                              coeff_min=-3, coeff_max=2, seed=seed)
            assert terms_bits(random_multivector(spec)) == summed_bits(runs_of(drawn_terms(spec)))
        return
    # 1e16, 1.0, 1.0, -1e16 on e_1 is 0.0 in this order; e_2's 1.0, -1.0 cancel
    cases = [[((1,), 1e16), ((2,), 1.0), ((1,), 1.0), ((2,), -1.0), ((1,), 1.0), ((1,), -1e16)]]
    rng = random.Random(builder)
    for _ in range(80):
        cases.append([(rng.choice(SUM_BLADES), rng.choice(ORDER_DEPENDENT)) for _ in range(rng.randint(1, 16))])
    seen = {"order": 0, "zero": 0}
    for terms in cases:
        value, pairs = build(terms)
        runs = runs_of(pairs)
        seen["order"] += sum(chain(values) != chain(sorted(values, key=abs)) for values in runs.values())
        seen["zero"] += sum(chain(values) == 0.0 for values in runs.values())
        assert terms_bits(value) == summed_bits(runs)
    assert seen["zero"]
    # two values add alike in either order
    assert builder in ("+", "-") or seen["order"]
