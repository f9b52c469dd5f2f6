import pytest
from hypothesis import given, strategies as st

from cliffcalc import UNBOUNDED, Signature, euclidean, generator_square, grassmann
from cliffcalc.metric import signature_masks


def test_mixed_signature_regions():
    sig = Signature(1, 1)
    assert generator_square(sig, 1) == 1
    assert generator_square(sig, 2) == -1
    assert generator_square(sig, 3) == 0


def test_null_signature():
    assert generator_square(Signature(0, 0), 5) == 0


def test_unbounded_positive():
    assert generator_square(Signature(UNBOUNDED, 0), 53) == 1
    assert generator_square(euclidean(), 9999) == 1


def test_finite_p_unbounded_q():
    sig = Signature(7)
    assert sig.q is UNBOUNDED
    assert generator_square(sig, 7) == 1
    assert generator_square(sig, 10) == -1
    assert generator_square(sig, 10_000) == -1


def test_euclidean_is_unbounded_positive():
    assert euclidean() == Signature(UNBOUNDED, 0)
    assert euclidean() == Signature(float("inf"), 0)
    assert generator_square(euclidean(), 1) == 1


def test_grassmann_is_all_null():
    assert grassmann() == Signature(0, 0)
    assert generator_square(grassmann(), 1) == 0


def test_infinity_normalizes_to_unbounded():
    assert Signature(float("inf"), 0).p is UNBOUNDED
    assert Signature(2, float("inf")).q is UNBOUNDED


@pytest.mark.parametrize("bad", [-1, 2.5, "3", None])
def test_invalid_counts_rejected(bad):
    with pytest.raises((TypeError, ValueError)):
        Signature(bad, 0)


def test_index_below_one_rejected():
    with pytest.raises(ValueError):
        generator_square(euclidean(), 0)


@given(
    p=st.integers(0, 20),
    q=st.integers(0, 20),
    i=st.integers(1, 60),
)
def test_three_regions_partition_the_index_line(p, q, i):
    sig = Signature(p, q)
    square = generator_square(sig, i)
    assert square in (1, -1, 0)
    if i <= p:
        assert square == 1
    elif i <= p + q:
        assert square == -1
    else:
        assert square == 0


@given(p=st.integers(0, 10), q=st.integers(0, 10), i=st.integers(1, 40))
def test_generator_square_is_pure(p, q, i):
    sig = Signature(p, q)
    assert generator_square(sig, i) == generator_square(Signature(p, q), i)


HUGE = 10**18


@pytest.mark.parametrize(
    "sig",
    [euclidean(), grassmann(), Signature(3, 1), Signature(7), Signature(0), Signature(60, 6),
     Signature(HUGE, 3), Signature(2, HUGE), Signature(HUGE, HUGE), Signature(HUGE), Signature(UNBOUNDED, 5)],
)
@pytest.mark.parametrize("width", [0, 1, 5, 64, 70])
def test_signature_masks_match_generator_square(sig, width):
    pos, neg = signature_masks(sig, width)
    assert (pos | neg) >> width == 0 and pos & neg == 0
    for i in range(1, width + 1):
        square = generator_square(sig, i)
        assert (pos >> (i - 1)) & 1 == (square == 1)
        assert (neg >> (i - 1)) & 1 == (square == -1)


def test_signature_masks_clamp_huge_counts_to_the_width():
    # a shift by p itself would need 10**18 bits
    width = 65535
    full = (1 << width) - 1
    assert signature_masks(Signature(HUGE, 3), width) == (full, 0)
    assert signature_masks(Signature(2, HUGE), width) == (0b11, full ^ 0b11)
    assert signature_masks(Signature(65530, HUGE), width) == ((1 << 65530) - 1, full >> 65530 << 65530)
    assert signature_masks(Signature(65530, 3), width) == ((1 << 65530) - 1, 0b111 << 65530)
