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
    """No stored coefficient is exactly zero, and keys ascend strictly."""
    assert all(coeff != 0.0 for _, coeff in mv.terms())
    keys = [blade_key(blade) for blade in mv.blades()]
    assert keys == sorted(set(keys))


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
)
def test_every_result_stores_canonical_terms(a, b, s, sig, raw):
    scaled = a * s
    built = from_terms([blade for blade, _ in raw], [coeff for _, coeff in raw])
    results = [scaled, s * b, a + b, a - b, a - a + b, built]
    previous = kernels.active_backend()
    try:
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            results += [products.geometric_product(a, b, sig), products.wedge(a, b),
                        products.left_contraction(a, b, sig),
                        products.right_contraction(a, b, sig)]
    finally:
        kernels.set_backend(previous)
    if a and b:  # the kernel itself, below the cutoffs too
        from tests.test_kernels import packed

        results += [packed(a, b, sig, kernels.FILTER_NONE), packed(a, b, grassmann(), kernels.FILTER_NONE),
                    packed(a, b, sig, kernels.FILTER_LEFT), packed(a, b, sig, kernels.FILTER_RIGHT)]
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
