import math
import os
import tempfile

import pytest
from hypothesis import given, strategies as st

from cliffcalc import (
    Multivector,
    Signature,
    as_1vector,
    basis,
    euclidean,
    from_scalar,
    from_terms,
    grassmann,
    kernels,
    load,
    parse_multivector,
    render,
    save,
    zero,
)
from cliffcalc.blade import blade_key
from cliffcalc import products
from tests.oracle import count_inversions
# imported here, not inside a test: importing the module runs its @given
# decorators, which hypothesis rejects inside another @given test
from tests.test_kernels import packed
from tests.strategies import FINITE_COEFFS, blades, multivectors


def sample_x():
    return from_terms([[], [1], [2], [2, 3]], [1, 2, 3, 4])


# --- construction ---------------------------------------------------------

def test_from_terms_basic():
    x = sample_x()
    assert dict(x.terms()) == {(): 1.0, (1,): 2.0, (2,): 3.0, (2, 3): 4.0}


def test_from_terms_cancellation():
    assert from_terms([[1], [1]], [1, -1]).is_zero()


def test_from_terms_applies_parity():
    mv = from_terms([[2, 1]], [5])
    assert count_inversions([2, 1]) == 1  # one transposition
    assert dict(mv.terms()) == {(1, 2): -5.0}


def test_from_terms_sums_duplicate_blades():
    mv = from_terms([[1, 2], [2, 1]], [3, 1])
    assert dict(mv.terms()) == {(1, 2): 2.0}


def test_from_terms_length_mismatch():
    with pytest.raises(ValueError):
        from_terms([[1]], [1, 2])


def test_from_terms_rejects_repeated_index_within_one_list():
    with pytest.raises(ValueError):
        from_terms([[1, 1]], [1])


def test_constructor_validates_blades():
    with pytest.raises(ValueError):
        Multivector({(2, 1): 1.0})
    with pytest.raises(ValueError):
        Multivector({(0,): 1.0})
    with pytest.raises(TypeError):
        Multivector({(1,): "three"})
    for index in (1.0, True, "1"):
        with pytest.raises(TypeError, match="blade index must be int"):
            Multivector({(index,): 1.0})


def test_non_finite_coefficients_are_rejected():
    x = sample_x()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Multivector({(1,): bad})
        with pytest.raises(ValueError, match="finite"):
            from_terms([[2, 1]], [bad])
        with pytest.raises(ValueError, match="finite"):
            from_scalar(bad)
        with pytest.raises(ValueError, match="finite"):
            as_1vector([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            x * bad
        with pytest.raises(ValueError, match="finite"):
            bad * x


def test_from_scalar():
    assert dict(from_scalar(2).terms()) == {(): 2.0}
    assert from_scalar(0).is_zero()


def test_as_1vector():
    v = as_1vector([1, 2, 3, 4, 5, 6, 7])
    assert dict(v.terms()) == {(i,): float(i) for i in range(1, 8)}
    assert as_1vector([]).is_zero()
    assert dict(as_1vector([0, 5]).terms()) == {(2,): 5.0}


def test_as_1vector_stops_at_max_index():
    # an entry past MAX_INDEX would be a blade that neither render nor save
    # can make read back; as_1vector rejects it as the constructor does
    with pytest.raises(ValueError, match="blade index 65536 outside 1..65535"):
        as_1vector([0.0] * 65535 + [1.0])
    top = as_1vector([0.0] * 65534 + [1.0])
    assert top == basis(65535) == Multivector({(65535,): 1.0})
    assert parse_multivector(render(top)) == top
    full = as_1vector([1.0] * 65535)
    assert full.num_terms() == 65535 and full.max_index() == 65535


def test_basis():
    assert dict(basis(1).terms()) == {(1,): 1.0}
    assert dict(basis(53).terms()) == {(53,): 1.0}
    with pytest.raises(ValueError):
        basis(0)


# --- linear operations ----------------------------------------------------

def test_subtraction_drops_cancelled_term():
    x = sample_x()
    y = from_terms([[1]], [2])
    assert dict((x - y).terms()) == {(): 1.0, (2,): 3.0, (2, 3): 4.0}


def test_additive_identity_and_inverse():
    x = sample_x()
    assert x + zero() == x
    assert (x + (-x)).is_zero()


#: Stored coefficients whose sums cancel to ±0.0, overflow to ±inf or, from
#: infinities that products can store, give NaN.
SUMMANDS = (1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, 1.7e308, -1.7e308, math.inf, -math.inf)


@pytest.mark.parametrize("width", [3, 6, 8, 10])
def test_sums_on_each_side_of_the_slots_rule_match_the_sort_bit_for_bit(monkeypatch, width):
    """``+`` sums more than 8 terms into slots when ``2 * terms >= 1 <<
    width``, and sorts the rest; either way its keys, order and bits are
    each key's values added from 0.0, left operand first, with exact zeros
    dropped, as :func:`~cliffcalc.multivector.sum_terms` gives them."""
    import random
    import struct

    from cliffcalc import multivector

    def bits(keys, coeffs):
        return [(key, struct.pack("<d", c)) for key, c in zip(keys, coeffs)]

    chosen = []
    rule = multivector.dense_slots

    def recording(width, terms):
        chosen.append(rule(width, terms))
        return chosen[-1]

    monkeypatch.setattr(multivector, "dense_slots", recording)
    rng = random.Random(width)
    top = 1 << (width - 1)
    # the fewest terms that take slots: more than 8, and 2 * terms >= 1 << width
    first = max(9, top)
    seen = set()
    for terms, slots in ((first, 1 << width), (first - 1, 0)):
        na = terms // 2
        for _ in range(12):
            # the left operand holds e_width; the right one shares half its
            # keys with it
            keys_a = sorted([top] + rng.sample(range(top), na - 1))
            shared = rng.sample(keys_a, (terms - na) // 2)
            others = sorted(set(range(1 << width)) - set(keys_a))
            keys_b = sorted(shared + rng.sample(others, terms - na - len(shared)))
            a, b = (Multivector._wrap(keys, [rng.choice(SUMMANDS) for _ in keys]) for keys in (keys_a, keys_b))
            del chosen[:]
            got = a + b
            assert chosen == ([slots] if terms > 8 else [])
            sums = {}
            for key, value in (*zip(a._keys, a._coeffs), *zip(b._keys, b._coeffs)):
                sums[key] = sums.get(key, 0.0) + value
            expected = bits(*zip(*[(key, c) for key, c in sorted(sums.items()) if c]))
            assert bits(got._keys, got._coeffs) == expected
            assert bits(*multivector.sum_terms(zip(a._keys + b._keys, a._coeffs + b._coeffs))) == expected
            seen |= {"zero" for c in sums.values() if c == 0.0}
            seen |= {"inf" for c in got._coeffs if c in (math.inf, -math.inf)}
            seen |= {"nan" for c in got._coeffs if c != c}
    assert seen == {"zero", "inf", "nan"}


def test_scalar_multiplication():
    x = sample_x()
    assert (0 * x).is_zero()
    assert -1 * x == -x
    assert dict((2.5 * x).terms())[(2, 3)] == 10.0


def test_multivector_times_multivector_is_rejected():
    x = sample_x()
    with pytest.raises(TypeError, match="geometric_product"):
        x * x


@given(a=multivectors(), b=multivectors(), c=multivectors())
def test_addition_commutes_and_associates(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b)


@given(a=multivectors())
def test_no_stored_zero_coefficients(a):
    mv = a - a + a
    for _, coeff in mv.terms():
        assert coeff != 0.0


def assert_canonical_terms(mv):
    """The store is two lists of equal length: Python int keys ascending
    strictly, and float coefficients none of which is exactly zero."""
    keys, coeffs = mv._keys, mv._coeffs
    assert type(keys) is list and type(coeffs) is list
    assert len(keys) == len(coeffs)
    assert all(type(key) is int for key in keys) and all(type(c) is float for c in coeffs)
    assert all(low < high for low, high in zip(keys, keys[1:]))
    assert all(c != 0.0 for c in coeffs)


def narrow(mv):
    """The terms of ``mv`` whose indices are all at most the sign table's width."""
    return Multivector({blade: c for blade, c in mv.terms() if max(blade, default=0) <= products._TABLE_WIDTH})


# up to 18 terms over 8 generators, so the numpy backend runs the packed
# kernel on some products and the per-pair path on the rest; overflowing
# float products make numpy warn, which is not what this checks
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(
    a=multivectors(max_index=8, max_terms=18, coeffs=FINITE_COEFFS),
    b=multivectors(max_index=8, max_terms=18, coeffs=FINITE_COEFFS),
    s=FINITE_COEFFS,
    sig=st.sampled_from([euclidean(), Signature(3, 1), grassmann()]),
    raw=st.lists(st.tuples(blades(8).map(lambda b: list(reversed(b))), FINITE_COEFFS), max_size=8),
    seed=st.integers(0, 2**32),
)
def test_every_result_stores_canonical_terms(a, b, s, sig, raw, seed):
    from cliffcalc import RandomSpec, Session, eval_expr, parse_expr, random_multivector

    scaled = a * s
    built = from_terms([blade for blade, _ in raw], [coeff for _, coeff in raw])
    results = [a, scaled, s * b, a * 0.0, a + b, a - b, a - a + b, -a, built, zero(), from_scalar(s),
               basis(8), as_1vector([c for _, c in raw]), *(a.grade_part(r) for r in range(10))]
    previous = kernels.active_backend()
    try:
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            results += [products.geometric_product(a, b, sig), products.wedge(a, b),
                        products.left_contraction(a, b, sig),
                        products.right_contraction(a, b, sig)]
    finally:
        kernels.set_backend(previous)
    # the per-pair path's two loops, on every operand pair: the sign table on
    # the terms within its width, the wide loop (any width past the table's
    # bounds the keys) on all of them
    width = max(a.max_index(), b.max_index(), products._TABLE_WIDTH + 1)
    for filter_mode in (kernels.FILTER_NONE, kernels.FILTER_LEFT, kernels.FILTER_RIGHT):
        results += [products._per_pair(narrow(a), narrow(b), sig, filter_mode, products._TABLE_WIDTH),
                    products._per_pair(a, b, sig, filter_mode, width)]
    if a and b:  # the kernel itself, below the cutoffs too
        results += [packed(a, b, sig, kernels.FILTER_NONE), packed(a, b, grassmann(), kernels.FILTER_NONE),
                    packed(a, b, sig, kernels.FILTER_LEFT), packed(a, b, sig, kernels.FILTER_RIGHT)]
    # the calculator's literal terms and its + and - chains
    session = Session(variables={"a": a, "b": b})
    results += [eval_expr(parse_expr(line), session) for line in ("2.5e_13", "0e_2", "a + b - a + 3e_8", "a - a")]
    for dimension in (8, 70):
        spec = RandomSpec(dimension=dimension, max_grade=3, num_terms=12, include_fewer=True, seed=seed)
        results.append(random_multivector(spec))
    for mv in results:
        assert_canonical_terms(mv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.mv")
        for mv in (a, scaled, built):
            # sums and products of finite values may overflow, and inf
            # does not read back
            if all(math.isfinite(c) for _, c in mv.terms()):
                assert_canonical_terms(parse_multivector(render(mv)))
                save(mv, path)
                assert_canonical_terms(load(path))


def test_scalar_product_that_underflows_to_zero_drops_the_term():
    x = Multivector({(1,): 1e-200}) * 1e-200
    assert x == zero() and x.is_zero()
    assert parse_multivector(render(x)) == x
    mixed = Multivector({(1,): 1e-200, (2,): 3.0}) * 1e-200
    assert mixed == Multivector({(2,): 3e-200})
    assert parse_multivector(render(mixed)) == mixed


# --- grade machinery ------------------------------------------------------

def grades_example():
    # 8 terms with grades 0 1 1 5 1 5 3 4 in print order
    return from_terms(
        [[], [4], [6], [1, 2, 3, 5, 6], [7], [2, 3, 4, 6, 7], [5, 6, 7], [3, 5, 6, 7]],
        [4, 1, -3, 3, 2, -1, 4, 5],
    )


def test_grades_ascending_multiset():
    assert grades_example().grades() == [0, 1, 1, 1, 3, 4, 5, 5]
    assert zero().grades() == []
    assert from_scalar(3).grades() == [0]


def test_grade_part_filters_exactly():
    x = grades_example()
    assert dict(x.grade_part(1).terms()) == {(4,): 1.0, (6,): -3.0, (7,): 2.0}
    assert x.grade_part(0) == from_scalar(4)
    assert zero().grade_part(3).is_zero()
    with pytest.raises(ValueError):
        x.grade_part(-1)


@given(a=multivectors())
def test_grade_parts_sum_back(a):
    total = zero()
    for r in range(8):
        part = a.grade_part(r)
        assert all(len(blade) == r for blade in part.blades())
        total = total + part
    assert total == a
    assert len(a.grades()) == a.num_terms()


# --- equality -------------------------------------------------------------

def test_equality_is_structural():
    assert from_terms([[1, 2]], [1]) == from_terms([[2, 1]], [-1])
    assert from_scalar(1) != from_scalar(2)
    assert hash(from_terms([[1, 2]], [1])) == hash(from_terms([[2, 1]], [-1]))
    assert len({sample_x(), sample_x(), zero(), zero()}) == 2


def test_hash_values_are_those_of_the_term_tuples():
    """``hash`` is that of the (blade key, coefficient) pairs as a tuple, so
    a value hashes as it did when the terms were stored in a dict."""
    from cliffcalc import MAX_INDEX

    values = {
        5740354900026072187: zero(),
        -7867089251005121896: from_scalar(2.5),
        -6468940870491667417: Multivector({(1,): 1.0, (2, 3): -2.0, (): 0.5}),
        -239424877054962991: Multivector({(65,): 1.0, (1, 200): 0.5, (3, 64): -7.25}),
        3351148772063129882: basis(MAX_INDEX),
    }
    for expected, mv in values.items():
        assert hash(mv) == expected


def test_coefficient_finds_present_and_absent_blades():
    from cliffcalc import MAX_INDEX

    blades = [(), (1,), (2, 3), (64,), (1, 65), (3, 64, 200), (MAX_INDEX - 1,), (1, MAX_INDEX)]
    mv = Multivector({blade: float(k + 1) for k, blade in enumerate(blades)})
    assert [blade_key(blade) for blade in mv.blades()] == sorted(map(blade_key, blades))
    assert blade_key((1, 65)) > 2**64
    for k, blade in enumerate(blades):
        assert mv.coefficient(blade) == k + 1
    # below the first key, between keys (above 2**64 too) and past the last
    for blade in [(2,), (1, 2), (65,), (2, 65), (3, 64, 199), (MAX_INDEX,), (2, MAX_INDEX)]:
        assert mv.coefficient(blade) == 0.0
    top = basis(MAX_INDEX)
    assert top.coefficient((MAX_INDEX,)) == 1.0 and top.coefficient(()) == 0.0
    assert top.coefficient((MAX_INDEX - 1,)) == 0.0 and zero().coefficient((MAX_INDEX,)) == 0.0
    assert mv.scalar_part() == 1.0 and top.scalar_part() == 0.0 and zero().scalar_part() == 0.0


def test_coefficient_str_and_repr():
    x = sample_x()
    assert x.coefficient((2, 3)) == 4.0
    assert x.coefficient([]) == 1.0
    assert x.coefficient((1, 2)) == 0.0
    with pytest.raises(ValueError, match="strictly increasing"):
        x.coefficient((3, 2))
    assert str(x) == render(x) == "+ 1 + 2e_1 + 3e_2 + 4e_23"
    assert repr(x) == "Multivector({(): 1.0, (1,): 2.0, (2,): 3.0, (2, 3): 4.0})"
    assert eval(repr(x)) == x


def test_is_zero():
    x = sample_x()
    assert (x - x).is_zero()
    assert not x.is_zero()
    assert zero().is_zero()


def test_equals_within():
    a = from_terms([[1]], [1.0])
    b = from_terms([[1]], [1.0 + 1e-12])
    assert a != b
    assert a.equals_within(b, 1e-9)
    assert not a.equals_within(b, 1e-15)


def test_canonical_iteration_order():
    mv = from_terms([[3], [1, 2], [], [2, 3, 4], [5]], [1, 1, 1, 1, 1])
    assert list(mv.blades()) == [(), (1, 2), (3,), (2, 3, 4), (5,)]
