"""Backend equivalence: the numpy kernel and the per-pair path must agree exactly."""

import numpy as np
import pytest

from cliffcalc import Multivector, Signature, euclidean, grassmann
from cliffcalc import kernels
from cliffcalc.kernels import (
    FILTER_LEFT,
    FILTER_NONE,
    FILTER_RIGHT,
    dense_bins,
    pair_table_numpy,
    region_masks,
)
from cliffcalc.products import (
    geometric_product,
    left_contraction,
    right_contraction,
    wedge,
)
from cliffcalc import generator_square
from tests.strategies import corpus


@pytest.fixture
def restore_backend():
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


def big_corpus():
    # enough terms that the packed kernels (not the small-product shortcut)
    # actually run
    return corpus(6, dimension=8, max_grade=4, include_fewer=True, num_terms=40)


def test_region_masks_match_generator_square():
    for sig in (euclidean(), Signature(3, 1), Signature(0, 0), Signature(7), Signature(2)):
        pos, neg = region_masks(sig)
        for i in range(1, 65):
            bit = 1 << (i - 1)
            square = generator_square(sig, i)
            assert bool(pos & bit) == (square == 1)
            assert bool(neg & bit) == (square == -1)


@pytest.mark.parametrize("sig", [euclidean(), Signature(3, 1), Signature(2, 2), grassmann()])
def test_backends_agree(restore_backend, sig):
    mvs = big_corpus()
    backends = ["numpy", "python"]
    for a in mvs[:3]:
        for b in mvs[3:]:
            results = {}
            for backend in backends:
                kernels.set_backend(backend)
                results[backend] = (
                    geometric_product(a, b, sig),
                    wedge(a, b),
                    left_contraction(a, b, sig),
                    right_contraction(a, b, sig),
                )
            reference = results[backends[0]]
            for backend in backends[1:]:
                assert results[backend] == reference, backend


def test_numpy_table_handles_all_filtered():
    # left contraction where a is never a subset of b: empty output
    keys_a = np.array([0b111], dtype=np.uint64)
    keys_b = np.array([0b001], dtype=np.uint64)
    ca = np.array([2.0])
    cb = np.array([3.0])
    all_positive = np.uint64(0xFFFFFFFFFFFFFFFF)
    keys, coeffs = pair_table_numpy(
        keys_a, ca, keys_b, cb, all_positive, np.uint64(0), FILTER_LEFT
    )
    assert keys.size == 0 and coeffs.size == 0


def test_output_keys_ascending(restore_backend):
    mvs = big_corpus()
    kernels.set_backend("numpy")
    result = geometric_product(mvs[0], mvs[1], Signature(3, 1))
    keys = [sum(1 << (i - 1) for i in blade) for blade in result.blades()]
    assert keys == sorted(keys)


def test_set_backend_validates():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")


def test_set_backend_roundtrip(restore_backend):
    previous = kernels.set_backend("numpy")
    assert kernels.active_backend() == "numpy"
    kernels.set_backend(previous)


def test_backends_agree_at_the_packing_boundary(restore_backend):
    # index 64 is bit 63, the last one the packed kernels can carry
    from cliffcalc import Multivector

    a = Multivector({(1, 64): 2.0, (63, 64): 3.0, (2,): 1.0, (64,): -1.0, (5, 62): 1.0})
    b = Multivector({(64,): 1.0, (2, 63): -2.0, (1, 63, 64): 5.0, (62,): 2.0})
    backends = ["numpy", "python"]
    for sig in (euclidean(), Signature(63, 1), Signature(7), grassmann()):
        results = []
        for backend in backends:
            kernels.set_backend(backend)
            results.append(
                (
                    geometric_product(a, b, sig),
                    wedge(a, b),
                    left_contraction(a, b, sig),
                    right_contraction(a, b, sig),
                )
            )
        assert all(r == results[0] for r in results), sig
    kernels.set_backend(backends[0])
    e64_squared = geometric_product(
        Multivector({(64,): 1.0}), Multivector({(64,): 1.0}), Signature(63, 1)
    )
    assert dict(e64_squared.terms()) == {(): -1.0}


def test_determinism_same_backend(restore_backend):
    mvs = big_corpus()
    for backend in ["numpy", "python"]:
        kernels.set_backend(backend)
        first = geometric_product(mvs[0], mvs[1], Signature(3, 1))
        second = geometric_product(mvs[0], mvs[1], Signature(3, 1))
        assert dict(first.terms()) == dict(second.terms())


def float_multivector(rng, indices, num_terms):
    """Distinct random blades over ``indices`` with mixed-magnitude floats."""
    terms = {}
    while len(terms) < num_terms:
        grade = int(rng.integers(0, 5))
        blade = tuple(sorted(int(i) for i in rng.choice(indices, size=grade, replace=False)))
        terms[blade] = float(rng.uniform(-1, 1) * 10.0 ** int(rng.integers(-8, 9)))
    return Multivector(terms)


def all_products(a, b, sig):
    return [
        list(product.terms())
        for product in (
            geometric_product(a, b, sig),
            wedge(a, b),
            left_contraction(a, b, sig),
            right_contraction(a, b, sig),
        )
    ]


def keys_of(mv):
    return np.array(
        [sum(1 << (i - 1) for i in blade) for blade in mv.blades()], dtype=np.uint64
    )


def assert_backends_agree_exactly(a, b, sig):
    kernels.set_backend("numpy")
    packed = all_products(a, b, sig)
    kernels.set_backend("python")
    per_pair = all_products(a, b, sig)
    # same blades, same coefficients (==, not approx), same order
    assert packed == per_pair


@pytest.mark.parametrize("sig", [euclidean(), Signature(3, 1), Signature(2, 2), grassmann()])
def test_backends_agree_on_float_coefficients_dense(restore_backend, sig):
    rng = np.random.default_rng(11)
    indices = np.arange(1, 7)
    for _ in range(8):
        a = float_multivector(rng, indices, int(rng.integers(10, 30)))
        b = float_multivector(rng, indices, int(rng.integers(10, 30)))
        assert dense_bins(keys_of(a), keys_of(b)) == 64
        assert_backends_agree_exactly(a, b, sig)


@pytest.mark.parametrize(
    "sig", [euclidean(), Signature(40, 10), Signature(21, 43), grassmann()]
)
def test_backends_agree_on_float_coefficients_wide_keys(restore_backend, sig):
    rng = np.random.default_rng(12)
    indices = np.r_[21:25, 61:65]
    for _ in range(8):
        a = float_multivector(rng, indices, int(rng.integers(7, 12)))
        b = float_multivector(rng, indices, int(rng.integers(7, 12)))
        assert dense_bins(keys_of(a), keys_of(b)) == 0
        assert_backends_agree_exactly(a, b, sig)


def test_float_sums_keep_pair_order():
    # three pairs land on e_12 with +1e16, +1, +1 (the last via e_2 e_1 = -e_12):
    # in pair order 1e16 + 1 rounds back to 1e16 twice, any other grouping
    # gives 1e16 + 2; index 61/62 versions of the same table take the sparse path
    ca = np.array([1e16, 1.0, 1.0])
    cb = np.array([1.0, 1.0, -1.0])
    pos = np.uint64(0xFFFFFFFFFFFFFFFF)
    for shift, bins in ((0, 4), (60, 0)):
        ka = np.array([0b00, 0b01, 0b10], dtype=np.uint64) << np.uint64(shift)
        kb = np.array([0b11, 0b10, 0b01], dtype=np.uint64) << np.uint64(shift)
        assert dense_bins(ka, kb) == bins
        keys, coeffs = pair_table_numpy(ka, ca, kb, cb, pos, np.uint64(0), FILTER_NONE)
        table = dict(zip(keys.tolist(), coeffs.tolist()))
        assert keys.tolist() == sorted(table)
        assert table[0b11 << shift] == 1e16


def test_dense_bins_scales_with_pair_count():
    def keys(*indices):
        return np.array([1 << (i - 1) for i in indices], dtype=np.uint64)

    # a 5x5 table reaching index 20 would scan 2**20 bins for 25 pairs: sparse
    assert dense_bins(keys(1, 2, 3, 4, 20), keys(5, 6, 7, 8, 9)) == 0
    # up to 1024 bins (index 10) dense is always taken
    assert dense_bins(keys(1, 2, 3, 4, 10), keys(5, 6, 7, 8, 9)) == 1024
    # index 20 is dense once the table has 2**19 pairs to pay for the bins
    wide = np.arange(1 << 10, dtype=np.uint64)
    wide[-1] = 1 << 19
    assert dense_bins(wide[-511:], wide) == 0
    assert dense_bins(wide, wide[-512:]) == 1 << 20


def test_unknown_backend_env_var_is_rejected(monkeypatch):
    for name in ("numba", "fortran"):
        monkeypatch.setenv("CLIFFCALC_BACKEND", name)
        with pytest.raises(ValueError, match="not one of numpy, python"):
            kernels._default_backend()
        with pytest.raises(ValueError):
            kernels.set_backend(name)


@pytest.mark.parametrize("sig", [Signature(10**18, 3), Signature(2, 10**18), Signature(62, 10**18)])
def test_backends_agree_on_huge_signature_counts(restore_backend, sig):
    mvs = big_corpus()
    for a in mvs[:3]:
        for b in mvs[3:]:
            assert_backends_agree_exactly(a, b, sig)
    rng = np.random.default_rng(13)
    indices = np.r_[1:4, 59:65]
    for _ in range(8):
        a = float_multivector(rng, indices, int(rng.integers(7, 12)))
        b = float_multivector(rng, indices, int(rng.integers(7, 12)))
        assert_backends_agree_exactly(a, b, sig)


def test_backends_agree_at_the_packing_boundary_above_the_cutoff(restore_backend):
    # enough pairs that the numpy backend really runs the kernel on bit 63
    from cliffcalc import products

    rng = np.random.default_rng(14)
    indices = np.r_[1:3, 5, 62:65]
    for sig in (euclidean(), Signature(63, 1), Signature(7), grassmann()):
        for _ in range(4):
            a = float_multivector(rng, indices, 8)
            b = float_multivector(rng, indices, 8) + Multivector({(64,): 0.5})
            assert b.max_index() == 64
            assert a.num_terms() * b.num_terms() > products._SMALL_PAIRS
            assert_backends_agree_exactly(a, b, sig)
