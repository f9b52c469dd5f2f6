import itertools

import pytest
from hypothesis import given, settings

from cliffcalc import (
    Signature,
    blade_key,
    blade_product,
    blade_wedge,
    canonicalize,
    euclidean,
    generator_square,
    grassmann,
)
from tests.oracle import bubble_sort_parity, count_inversions, rewrite_blade_product
from tests.strategies import blades


def all_blades(max_index):
    indices = range(1, max_index + 1)
    for r in range(max_index + 1):
        yield from itertools.combinations(indices, r)


# --- canonicalize ---------------------------------------------------------

def test_canonicalize_applies_permutation_parity():
    assert canonicalize([2, 1]) == (-1, (1, 2))
    assert canonicalize([3, 1, 2]) == (1, (1, 2, 3))
    assert canonicalize([]) == (1, ())


def test_canonicalize_rejects_duplicates():
    with pytest.raises(ValueError):
        canonicalize([1, 2, 1])
    with pytest.raises(ValueError, match="duplicate index 1"):
        canonicalize([2, 1, 3, 1])


def test_canonicalize_checks_range_before_duplicates():
    with pytest.raises(ValueError, match="outside"):
        canonicalize([1, 1, 70000])
    with pytest.raises(ValueError, match="outside"):
        canonicalize([2, 0, 2])


@given(raw=blades(max_index=9).map(list))
def test_canonicalize_parity_matches_bubble_sort(raw):
    import random

    shuffled = list(raw)
    random.Random(count_inversions(raw) + len(raw)).shuffle(shuffled)
    sign, blade = canonicalize(shuffled)
    assert blade == tuple(sorted(shuffled))
    assert sign == bubble_sort_parity(shuffled)


# --- blade_product --------------------------------------------------------

def test_product_interleaves_and_cancels():
    # e_13 e_12 = -e_11 e_32 = e_23 in a positive-definite metric
    assert blade_product((1, 3), (1, 2), euclidean()) == (1, (2, 3))


def test_scalar_unit_is_identity():
    assert blade_product((), (2, 3), Signature(0, 0)) == (1, (2, 3))
    assert blade_product((2, 3), (), euclidean()) == (1, (2, 3))


def test_null_square_kills_the_product():
    sign, _ = blade_product((5,), (5,), grassmann())
    assert sign == 0


def test_negative_square():
    assert blade_product((2,), (2,), Signature(1, 1)) == (-1, ())


def test_generator_square_law():
    for sig in (euclidean(), Signature(1, 1), Signature(2, 2), grassmann()):
        for i in range(1, 8):
            sign, blade = blade_product((i,), (i,), sig)
            assert sign == generator_square(sig, i)
            assert blade == () or sign == 0


def test_generators_anticommute():
    sig = Signature(3, 1)
    for i in range(1, 6):
        for j in range(1, 6):
            if i == j:
                continue
            forward = blade_product((i,), (j,), sig)
            backward = blade_product((j,), (i,), sig)
            assert forward.blade == backward.blade
            assert forward.sign == -backward.sign


@pytest.mark.parametrize(
    "sig", [euclidean(), Signature(3, 1), Signature(2, 2), grassmann()]
)
def test_product_matches_rewriting_oracle(sig):
    pool = list(all_blades(5))
    for a in pool:
        for b in pool:
            expected = rewrite_blade_product(a, b, sig)
            got = blade_product(a, b, sig)
            if expected[0] == 0:
                assert got.sign == 0
            else:
                assert (got.sign, got.blade) == expected


@settings(max_examples=50)
@given(a=blades(6), b=blades(6), c=blades(6))
def test_product_associates(a, b, c):
    sig = Signature(2, 2)
    assert _triple_left(a, b, c, sig) == _triple_right(a, b, c, sig)


def test_product_associates_exhaustively_up_to_index_6():
    sig = Signature(3, 2)  # exercises +1, -1 and null squares
    pool = list(all_blades(6))
    for a in pool:
        for b in pool:
            for c in pool:
                assert _triple_left(a, b, c, sig) == _triple_right(a, b, c, sig)


def _triple_left(a, b, c, sig):
    ab = blade_product(a, b, sig)
    if ab.sign == 0:
        return (0, ())
    abc = blade_product(ab.blade, c, sig)
    if abc.sign == 0:
        return (0, ())
    return (ab.sign * abc.sign, abc.blade)


def _triple_right(a, b, c, sig):
    bc = blade_product(b, c, sig)
    if bc.sign == 0:
        return (0, ())
    abc = blade_product(a, bc.blade, sig)
    if abc.sign == 0:
        return (0, ())
    return (bc.sign * abc.sign, abc.blade)


# --- blade_wedge ----------------------------------------------------------

def test_wedge_disjoint_blades():
    assert blade_wedge((2, 3, 7), (4, 5, 6)) == (-1, (2, 3, 4, 5, 6, 7))
    assert blade_wedge((1, 2, 3), (4, 5, 6)) == (1, (1, 2, 3, 4, 5, 6))


def test_wedge_shared_index_vanishes():
    assert blade_wedge((1,), (1,)).sign == 0
    assert blade_wedge((1, 4), (2, 4)).sign == 0


@given(a=blades(8), b=blades(8))
def test_wedge_agrees_with_null_signature_product(a, b):
    wedge = blade_wedge(a, b)
    product = blade_product(a, b, grassmann())
    assert wedge.sign == product.sign
    if wedge.sign != 0:
        assert wedge.blade == product.blade


@given(a=blades(8), b=blades(8))
def test_wedge_sign_is_concatenation_parity(a, b):
    result = blade_wedge(a, b)
    if set(a) & set(b):
        assert result.sign == 0
    else:
        assert result.sign == bubble_sort_parity(list(a) + list(b))
        assert result.sign == (-1) ** count_inversions(list(a) + list(b))


# --- blade_key ------------------------------------------------------------

def test_key_examples():
    assert blade_key(()) == 0
    assert blade_key((1, 2)) == 3
    assert blade_key((3,)) == 4
    assert blade_key((2, 3, 4)) == 14
    assert blade_key((5,)) == 16


def test_key_orders_low_indices_first():
    # e_12 before e_3, e_234 before e_5: lowest index varies fastest
    assert blade_key((1, 2)) < blade_key((3,))
    assert blade_key((2, 3, 4)) < blade_key((5,))


def test_key_handles_large_indices():
    assert blade_key((65535,)) == 1 << 65534
    assert blade_key((64,)) < blade_key((65,))


def test_index_bounds_enforced():
    assert canonicalize([65535]) == (1, (65535,))
    with pytest.raises(ValueError):
        canonicalize([65536])
    with pytest.raises(ValueError):
        canonicalize([0])


# --- sign_factors ---------------------------------------------------------

def test_prefix_parity_table_equals_the_shift_xor_rule():
    # bit j is set when the key has an odd number of bits above j
    from cliffcalc import blade

    assert len(blade._PREFIX_PARITY) == blade._PREFIX_BOUND == 1 << 12
    for a in range(blade._PREFIX_BOUND):
        expected = sum(1 << j for j in range(12) if (a >> (j + 1)).bit_count() & 1)
        assert blade._PREFIX_PARITY[a] == expected


@pytest.mark.parametrize("sig", [euclidean(), Signature(3, 1), Signature(6, 4), grassmann()])
def test_sign_factors_of_table_keys_equal_the_loop_on_arrays(sig):
    # int keys below the bound read the table, the rest and every array take
    # the loop: both give the same masks, past the bound too
    import numpy as np

    from cliffcalc.blade import sign_factors
    from cliffcalc.metric import signature_masks

    pos, neg = signature_masks(sig, 14)
    keys = range(1 << 14)
    parity, dead = sign_factors(np.array(keys, dtype=np.uint64), np.uint64(pos), np.uint64(neg), 14)
    assert [sign_factors(a, pos, neg, a.bit_length()) for a in keys] == list(
        zip(parity.tolist(), dead.tolist())
    )
