"""Backend equivalence: the numpy kernel and the per-pair path must agree exactly."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliffcalc import UNBOUNDED, Multivector, Signature, euclidean, grassmann
from cliffcalc import kernels
from cliffcalc.kernels import (
    FILTER_LEFT,
    FILTER_NONE,
    FILTER_RIGHT,
    _operands,
    dense_bins,
    pair_table,
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


def packed(a, b, sig, filter_mode=FILTER_NONE):
    """``a`` times ``b`` through the packed path, whatever their sizes."""
    width = max(a.max_index(), b.max_index())
    return Multivector._wrap(kernels.packed_product(a._terms, b._terms, sig, filter_mode, width))


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
    keys, coeffs = pair_table(
        keys_a, ca, keys_b, cb, all_positive, np.uint64(0), 3, FILTER_LEFT
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


def float_multivector(rng, indices, num_terms, coeffs=None):
    """Distinct random blades over ``indices`` with mixed-magnitude floats,
    or with coefficients drawn from the sequence ``coeffs``."""
    terms = {}
    while len(terms) < num_terms:
        grade = int(rng.integers(0, 5))
        blade = tuple(sorted(int(i) for i in rng.choice(indices, size=grade, replace=False)))
        if coeffs is None:
            terms[blade] = float(rng.uniform(-1, 1) * 10.0 ** int(rng.integers(-8, 9)))
        else:
            terms[blade] = float(rng.choice(coeffs))
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


def bins_of(a, b):
    """The kernel's bin count for the product of two multivectors."""
    return dense_bins(max(a.max_index(), b.max_index()), a.num_terms() * b.num_terms())


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
        assert bins_of(a, b) == 64
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
        assert bins_of(a, b) == 0
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
        assert dense_bins(2 + shift, ka.size * kb.size) == bins
        keys, coeffs = pair_table(ka, ca, kb, cb, pos, np.uint64(0), 2 + shift, FILTER_NONE)
        table = dict(zip(keys.tolist(), coeffs.tolist()))
        assert keys.tolist() == sorted(table)
        assert table[0b11 << shift] == 1e16


def test_dense_bins_scales_with_pair_count():
    # a 5x5 table reaching index 20 would scan 2**20 bins for 25 pairs: sparse
    assert dense_bins(20, 25) == 0
    # up to 1024 bins (index 10) dense is always taken
    assert dense_bins(10, 25) == 1024
    # index 20 is dense once the table has 2**19 pairs to pay for the bins
    assert dense_bins(20, 511 * 1024) == 0
    assert dense_bins(20, 1024 * 512) == 1 << 20


#: Run in a fresh interpreter: the backend at import, and whether a
#: 121-pair geometric product (above ``_SMALL_PAIRS``) calls the kernel.
_IMPORT_PROBE = """
from cliffcalc import Multivector, Signature, geometric_product, kernels, products

calls = []
kernel = kernels.pair_table

def recording_kernel(*args):
    calls.append(args[-1])
    return kernel(*args)

kernels.pair_table = recording_kernel
a = Multivector({(i,): 1.0 for i in range(1, 12)})
assert a.num_terms() ** 2 > products._SMALL_PAIRS
geometric_product(a, a, Signature(3, 1))
print(kernels.active_backend(), len(calls))
"""


def test_the_environment_does_not_choose_the_backend():
    # the backend is chosen by set_backend alone: an environment variable
    # naming an unknown backend neither breaks the import nor moves a
    # product off the kernel
    import os
    import subprocess
    import sys

    import cliffcalc

    src = os.path.dirname(os.path.dirname(cliffcalc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, CLIFFCALC_BACKEND="numba", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["numpy", "1"]


#: Run in a fresh interpreter, with numpy blocked when argv[1] is "block":
#: the products that stay on the per-pair path (a 100-pair geometric product,
#: a 256-pair wedge, each of the four products above its cutoff with an index
#: above 64, a calculator line and a two-line script, whose path is argv[2])
#: never import numpy; printed is whether numpy is loaded after them and,
#: unblocked, after a 101-pair geometric product at dimension 15.
_NUMPY_PROBE = """
import itertools
import sys

if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy raises ImportError
assert sys.modules.get("numpy") is None

from cliffcalc import (Multivector, Signature, euclidean, geometric_product, left_contraction, products,
                       right_contraction, wedge)
from cliffcalc.repl import Session, main, run_command

a = Multivector({(i,): 1.0 for i in range(1, 11)})
assert a.num_terms() ** 2 == products._SMALL_PAIRS
geometric_product(a, a, Signature(3, 1))
w = Multivector({(i,): 1.0 for i in range(1, 17)})
assert w.num_terms() ** 2 == products._SMALL_WEDGE_PAIRS
wedge(w, w)
high = Multivector({(i,): 1.0 for i in range(60, 81)})
assert high.num_terms() ** 2 > max(products._SMALL_PAIRS, products._SMALL_WEDGE_PAIRS,
                                   products._SMALL_CONTRACTION_PAIRS)
assert geometric_product(high, high, euclidean()) == Multivector({(): 21.0})
assert wedge(high, high).is_zero()
assert left_contraction(high, high, euclidean()) == Multivector({(): 21.0})
assert right_contraction(high, high, euclidean()) == Multivector({(): 21.0})
assert run_command("x = e_1 * e_2", Session()) is None
assert main(["--script", sys.argv[2]]) == 0
print(sys.modules.get("numpy") is not None)
if sys.argv[1] != "block":
    wide = Multivector({pair: 1.0 for pair in itertools.islice(itertools.combinations(range(1, 16), 2), 101)})
    geometric_product(Multivector({(): 1.0}), wide, euclidean())
    print(sys.modules.get("numpy") is not None)
"""


@pytest.mark.parametrize("numpy_mode, loaded", [("allow", ["False", "True"]), ("block", ["False"])])
def test_numpy_is_imported_by_the_first_packed_product(tmp_path, numpy_mode, loaded):
    # a fresh interpreter, since pytest and hypothesis may have numpy loaded
    import os
    import subprocess
    import sys

    import cliffcalc

    script = tmp_path / "two_lines.cliff"
    script.write_text("x = e_1 * e_2\nx * x\n")
    src = os.path.dirname(os.path.dirname(cliffcalc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, numpy_mode, str(script)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["scalar", "(", "-1", ")", *loaded]


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


#: Generator counts around and past 2**64, far too large to shift a mask by.
HUGE_COUNTS = (2**64 - 1, 2**64, 2**64 + 1, 10**30, UNBOUNDED)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(0, 72) | st.sampled_from(HUGE_COUNTS),
    q=st.integers(0, 72) | st.sampled_from(HUGE_COUNTS),
    top=st.sampled_from((10, 64, 70, 200)),
    seed=st.integers(0, 2**32 - 1),
)
def test_huge_signature_counts_match_the_rewriting_oracles(p, q, top, seed):
    # 21x21 terms over generators 1-5 and the five up to ``top``: more pairs
    # than any cutoff, so under the numpy backend every product of keys up to
    # 64 runs the kernel; integer coefficients make every sum exact
    from cliffcalc import products
    from tests.oracle import contraction_by_rewriting, product_by_rewriting

    sig = Signature(p, q)
    rng = np.random.default_rng(seed)
    indices = np.r_[1:6, top - 4:top + 1]
    a = float_multivector(rng, indices, 21, INTEGERS)
    b = float_multivector(rng, indices, 21, INTEGERS)
    assert a.num_terms() * b.num_terms() > products._SMALL_CONTRACTION_PAIRS
    packs = max(a.max_index(), b.max_index()) <= kernels.PACK_LIMIT
    expected = [
        list(m.terms())
        for m in (
            product_by_rewriting(a, b, sig),
            product_by_rewriting(a, b, grassmann()),
            contraction_by_rewriting(a, b, sig, "left"),
            contraction_by_rewriting(a, b, sig, "right"),
        )
    ]
    previous = kernels.active_backend()
    try:
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            with mock.patch.object(kernels, "pair_table", wraps=kernels.pair_table) as kernel:
                assert all_products(a, b, sig) == expected, backend
            assert kernel.call_count == (4 if packs and backend == "numpy" else 0)
    finally:
        kernels.set_backend(previous)


def test_backends_agree_at_the_packing_boundary_above_the_cutoff(restore_backend):
    # enough pairs that the numpy backend really runs the geometric product's
    # kernel on bit 63; the contractions and the wedge run per-pair at this
    # size, and the tests below cover their kernel on bit 63
    from cliffcalc import products

    rng = np.random.default_rng(14)
    indices = np.r_[1:3, 5, 62:65]
    for sig in (euclidean(), Signature(63, 1), Signature(7), grassmann()):
        for _ in range(4):
            a = float_multivector(rng, indices, 11)
            b = float_multivector(rng, indices, 11) + Multivector({(64,): 0.5})
            assert b.max_index() == 64
            assert a.num_terms() * b.num_terms() > products._SMALL_PAIRS
            assert_backends_agree_exactly(a, b, sig)


def test_contractions_above_their_cutoff_run_the_kernel_on_bit_63(restore_backend, monkeypatch):
    # contractions have their own, higher cutoff: these reach the kernel
    # with index 64 present, and must equal the per-pair path exactly
    from cliffcalc import products

    filters = []
    kernel = kernels.pair_table

    def recording_kernel(*args):
        filters.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(kernels, "pair_table", recording_kernel)
    rng = np.random.default_rng(15)
    indices = np.r_[1:3, 5, 62:65]
    for sig in (euclidean(), Signature(63, 1), Signature(7), grassmann()):
        for _ in range(3):
            a = float_multivector(rng, indices, 21)
            b = float_multivector(rng, indices, 21) + Multivector({(64,): 0.5})
            assert b.max_index() == 64
            assert a.num_terms() * b.num_terms() > products._SMALL_CONTRACTION_PAIRS
            filters.clear()
            assert_backends_agree_exactly(a, b, sig)
            assert FILTER_LEFT in filters and FILTER_RIGHT in filters


def test_contractions_up_to_their_cutoff_run_per_pair_and_match_the_kernel(restore_backend, monkeypatch):
    # 257-400 pairs: the contractions that took the kernel under a 256-pair
    # cutoff run per-pair under the numpy backend, bit for bit as the kernel
    from cliffcalc import products

    packed_calls = []
    packed_product = kernels.packed_product

    def recording_packed(*args):
        packed_calls.append(args[-1])
        return packed_product(*args)

    monkeypatch.setattr(kernels, "packed_product", recording_packed)
    kernels.set_backend("numpy")
    rng = np.random.default_rng(19)
    for dimension, coeffs in ((6, None), (10, None), (10, CANCELLING)):
        indices = np.arange(1, dimension + 1)
        for na, nb in ((17, 17), (16, 20), (18, 18), (19, 21), (20, 20)):
            a = float_multivector(rng, indices, na, coeffs)
            b = float_multivector(rng, indices, nb, coeffs)
            assert 256 < na * nb <= products._SMALL_CONTRACTION_PAIRS
            for sig in (euclidean(), Signature(3, 1), Signature(6, 4), grassmann()):
                for product, filter_mode in ((left_contraction, FILTER_LEFT),
                                             (right_contraction, FILTER_RIGHT)):
                    per_pair = list(product(a, b, sig).terms())
                    assert packed_calls == []
                    width = max(a.max_index(), b.max_index())
                    kernel = Multivector._wrap(packed_product(a._terms, b._terms, sig, filter_mode, width))
                    assert coefficient_bits(per_pair) == coefficient_bits(kernel.terms())


#: Each product, called as the calculator calls it, and the cutoff it passes.
OWN_CUTOFFS = (
    (lambda a, b: geometric_product(a, b, Signature(6, 4)), "_SMALL_PAIRS"),
    (wedge, "_SMALL_WEDGE_PAIRS"),
    (lambda a, b: left_contraction(a, b, Signature(6, 4)), "_SMALL_CONTRACTION_PAIRS"),
    (lambda a, b: right_contraction(a, b, Signature(6, 4)), "_SMALL_CONTRACTION_PAIRS"),
)


@pytest.mark.parametrize("product, cutoff", OWN_CUTOFFS, ids=["geometric", "wedge", "left", "right"])
@pytest.mark.parametrize("over", [0, 1], ids=["at", "above"])
def test_each_product_packs_just_above_its_own_cutoff(restore_backend, monkeypatch, product,
                                                      cutoff, over):
    # 1 x N terms in dimension 9, N the product's cutoff or one more: under
    # numpy the kernel runs only above the cutoff, under python never, and
    # the integer coefficients make both backends' sums exact
    import itertools

    from cliffcalc import products

    n = getattr(products, cutoff) + over
    blades = [blade for grade in range(1, 10) for blade in itertools.combinations(range(1, 10), grade)]
    a = Multivector({(1, 2, 3, 4): 3.0})
    b = Multivector({blade: float((1 + k % 7) * (-1) ** k) for k, blade in enumerate(blades[:n])})
    assert a.num_terms() * b.num_terms() == n
    spy = mock.Mock(wraps=kernels.pair_table)
    monkeypatch.setattr(kernels, "pair_table", spy)
    results = []
    for backend, kernel_calls in (("numpy", over), ("python", 0)):
        kernels.set_backend(backend)
        spy.reset_mock()
        results.append(list(product(a, b).terms()))
        assert spy.call_count == kernel_calls
    assert results[0] == results[1] != []


def with_e64(rng, indices, num_terms):
    """A float multivector of exactly ``num_terms`` terms, one of them e_64."""
    mv = float_multivector(rng, indices[indices < 64], num_terms - 1)
    return mv + Multivector({(64,): 0.5})


def test_wedges_run_the_kernel_on_bit_63_only_above_their_cutoff(restore_backend, monkeypatch):
    # up to the wedge's cutoff of 256 pairs the per-pair path runs with index
    # 64 present, above it the kernel, and both equal the python backend
    # exactly
    calls = []
    kernel = kernels.pair_table

    def recording_kernel(*args):
        calls.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(kernels, "pair_table", recording_kernel)
    rng = np.random.default_rng(17)
    indices = np.r_[1:3, 5, 62:65]
    for na, nb in ((7, 7), (9, 9), (14, 15), (16, 16), (16, 17), (17, 17)):
        a, b = with_e64(rng, indices, na), with_e64(rng, indices, nb)
        pairs = a.num_terms() * b.num_terms()
        assert pairs == na * nb
        kernels.set_backend("numpy")
        calls.clear()
        packed = list(wedge(a, b).terms())
        assert calls == ([FILTER_NONE] if pairs > 256 else [])
        kernels.set_backend("python")
        assert list(wedge(a, b).terms()) == packed


#: Integer coefficients, drawn as floats.
INTEGERS = (-5.0, -3.0, -2.0, -1.0, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("coeffs", [INTEGERS, None], ids=["int", "float"])
@pytest.mark.parametrize("dimension", [6, 10])
def test_per_pair_wedges_match_the_kernel_and_the_oracle(restore_backend, dimension, coeffs):
    # 49-256 pairs: the wedges that took the kernel under a 48-pair cutoff.
    # The python backend runs them all per-pair, the numpy backend those up
    # to the wedge's cutoff.
    from tests.oracle import product_by_rewriting

    rng = np.random.default_rng(18 + dimension)
    indices = np.arange(1, dimension + 1)
    for na, nb in ((7, 7), (7, 9), (9, 9), (12, 12), (12, 13), (16, 16)):
        a = float_multivector(rng, indices, na, coeffs)
        b = float_multivector(rng, indices, nb, coeffs)
        assert 49 <= a.num_terms() * b.num_terms() <= 256
        expected = list(product_by_rewriting(a, b, grassmann()).terms())
        assert list(packed(a, b, grassmann()).terms()) == expected
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            wedged = list(wedge(a, b).terms())
            assert wedged == expected, backend
            # the geometric product under the null metric is the wedge, on
            # either path and bit for bit
            null = list(geometric_product(a, b, grassmann()).terms())
            assert coefficient_bits(null) == coefficient_bits(wedged), backend


def test_wedge_takes_no_sign_factors_for_a_left_key_whose_pairs_all_overlap(monkeypatch):
    from cliffcalc import products
    from tests.oracle import product_by_rewriting

    left_keys = []
    sign_factors = products.sign_factors

    def recording_sign_factors(a, *args):
        left_keys.append(a)
        return sign_factors(a, *args)

    monkeypatch.setattr(products, "sign_factors", recording_sign_factors)
    # indices above products._TABLE_WIDTH, so that the products take the
    # general loop, not the sign table
    b = Multivector({(7,): 1.0, (7, 8, 9): -2.0, (7, 10): 0.5})
    # every blade here shares e_7 with every blade of b
    overlapping = Multivector({(7, 8): 3.0, (7, 9): 1.0, (7, 8, 10): -1.0})
    # e_10 and e_11 have disjoint partners in b, e_7 and e_78 none
    mixed = Multivector({(7,): 2.0, (10,): 1.0, (7, 8): 3.0, (11,): -1.0})
    # the geometric product under the null metric takes the wedge's filter
    for product in (wedge, lambda x, y: geometric_product(x, y, grassmann())):
        left_keys.clear()
        assert product(overlapping, b).is_zero()
        assert left_keys == []
        result = product(mixed, b)
        assert list(result.terms()) == list(product_by_rewriting(mixed, b, grassmann()).terms())
        assert result.num_terms() == 5
        assert left_keys == [0b1000 << 6, 0b10000 << 6]


#: Coefficients whose products cancel exactly, leave rounding residues
#: (0.1 * 3.0 against 0.3) or underflow to ±0.0 (1e-200 * 1e-200).
CANCELLING = (1.0, -1.0, 0.5, -0.5, 3.0, 0.1, -0.1, 0.3, 1e-200, -1e-200)


def sum_events(a, b, sig):
    """(a sum reaching exactly 0.0 and then added to nonzero, an underflow)
    over the geometric product's pairs, traced with the rewriting oracle."""
    from tests.oracle import rewrite_blade_product

    sums, zeroed = {}, set()
    revived = underflow = False
    for blade_a, ca in a.terms():
        for blade_b, cb in b.terms():
            sign, blade = rewrite_blade_product(blade_a, blade_b, sig)
            if sign == 0:
                continue
            term = ca * cb * sign
            underflow |= term == 0.0
            total = sums.get(blade, 0.0) + term
            revived |= blade in zeroed and total != 0.0
            if sums.get(blade, 0.0) != 0.0 and total == 0.0:
                zeroed.add(blade)
            sums[blade] = total
    return revived, underflow


@pytest.mark.parametrize("indices", [np.arange(1, 9), np.r_[1:5, 61:65]], ids=["dense", "sparse"])
@pytest.mark.parametrize("sig", [euclidean(), Signature(2, 1)])
def test_sums_that_cancel_or_underflow_match_the_oracles_bit_for_bit(restore_backend, indices, sig):
    # Every path sums each blade in pair order from 0.0 and drops exact zeros
    # at the end: the per-pair path, the kernel (whose bincount sums ±0.0
    # pair products like any other) and the oracles.
    from cliffcalc import products
    from tests.oracle import contraction_by_rewriting, product_by_rewriting

    rng = np.random.default_rng(16)
    seen_revived = seen_underflow = False
    for _ in range(4):
        a = float_multivector(rng, indices, 21, CANCELLING)
        b = float_multivector(rng, indices, 21, CANCELLING)
        assert a.num_terms() * b.num_terms() > products._SMALL_CONTRACTION_PAIRS
        expected = [
            list(m.terms())
            for m in (
                product_by_rewriting(a, b, sig),
                product_by_rewriting(a, b, grassmann()),
                contraction_by_rewriting(a, b, sig, "left"),
                contraction_by_rewriting(a, b, sig, "right"),
            )
        ]
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            assert all_products(a, b, sig) == expected, backend
        revived, underflow = sum_events(a, b, sig)
        seen_revived |= revived
        seen_underflow |= underflow
    assert seen_revived and seen_underflow


@pytest.mark.parametrize("left_terms", [6, 7], ids=["per-pair", "kernel"])
def test_overflowing_products_neither_warn_nor_differ_between_backends(restore_backend, left_terms):
    # 1e300 * 1e300 overflows to inf and inf - inf is nan: both paths keep
    # them silently, so a warnings filter set to error changes neither
    import math
    import warnings

    from cliffcalc import products

    a = Multivector({(i,): 1e300 for i in range(1, left_terms + 1)})
    b = Multivector({(i,): 1e300 for i in range(1, 16)})
    assert (a.num_terms() * b.num_terms() > products._SMALL_PAIRS) == (left_terms == 7)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            results.append(list(geometric_product(a, b, Signature(15)).terms()))
    numpy_terms, python_terms = results
    # the scalar, and every e_ij with i <= left_terms (nan when j <= left_terms too)
    assert len(numpy_terms) == len(python_terms) == 1 + math.comb(15, 2) - math.comb(15 - left_terms, 2)
    assert any(math.isnan(c) for _, c in numpy_terms) and any(math.isinf(c) for _, c in numpy_terms)
    for (blade_n, c_n), (blade_p, c_p) in zip(numpy_terms, python_terms):
        assert blade_n == blade_p
        assert c_n == c_p or (math.isnan(c_n) and math.isnan(c_p))


def kernel_call(a, b, sig=Signature(6, 4), filter_mode=FILTER_NONE):
    pos, neg = region_masks(sig)
    width = max(a.max_index(), b.max_index())
    return pair_table(
        *_operands(a._terms), *_operands(b._terms), np.uint64(pos), np.uint64(neg), width, filter_mode
    )


def dimension_10(num_terms, seed, scale=0.3):
    from cliffcalc.rand import RandomSpec, random_multivector

    spec = RandomSpec(dimension=10, max_grade=5, num_terms=num_terms, include_fewer=True, seed=seed)
    return random_multivector(spec) * scale


def same_arrays(first, second):
    """Equal keys and coefficients, compared bit for bit."""
    return all(
        x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in zip(first, second)
    )


def held_tables():
    return kernels._held.tables


def test_a_kernel_result_is_unchanged_by_later_products():
    a, b = dimension_10(300, 1), dimension_10(200, 2)
    first = kernel_call(a, b)
    saved = tuple(array.copy() for array in first)
    kernel_call(dimension_10(300, 3), dimension_10(200, 4))  # the same size
    kernel_call(dimension_10(512, 5), dimension_10(512, 6))  # a larger size
    kernel_call(dimension_10(300, 3), dimension_10(200, 4), grassmann())  # the wedge
    assert same_arrays(first, saved)
    assert same_arrays(kernel_call(a, b), saved)


def test_kernel_results_share_no_memory_with_the_held_tables():
    # every return path: dense and sparse bins, with and without a mask, an
    # empty result after the mask and one after every sum cancels
    wide = float_multivector(np.random.default_rng(30), np.r_[1:5, 61:65], 12)
    cases = [
        (dimension_10(200, 7), dimension_10(100, 8), Signature(6, 4), FILTER_NONE),
        (dimension_10(200, 7), dimension_10(100, 8), grassmann(), FILTER_NONE),
        (dimension_10(200, 7), dimension_10(100, 8), Signature(6, 4), FILTER_LEFT),
        (wide, wide, euclidean(), FILTER_NONE),
        (Multivector({(): 2.0}), wide, euclidean(), FILTER_NONE),  # no two pairs share a key
        (wide, wide, euclidean(), FILTER_RIGHT),
        (Multivector({(1, 2): 1.0}), Multivector({(1,): 1.0}), euclidean(), FILTER_LEFT),
        (*null_products(), Signature(6, 4), FILTER_NONE),
    ]
    for a, b, sig, filter_mode in cases:
        returned = kernel_call(a, b, sig, filter_mode)
        for array in returned:
            for table in held_tables():
                assert not np.shares_memory(array, table)
    assert returned[0].size == 0


def test_threads_running_mixed_sizes_get_the_serial_results():
    import sys
    import threading

    sizes = (40, 96, 200, 350, 512)
    operands = [(dimension_10(n, 40 + n), dimension_10(n, 41 + n, -0.7)) for n in sizes]
    serial = [kernel_call(a, b) for a, b in operands]
    mismatches = []
    start = threading.Barrier(3)

    def worker(offset):
        start.wait(timeout=10)
        for step in range(12):
            k = (offset + step * (offset + 1)) % len(operands)
            if not same_arrays(kernel_call(*operands[k]), serial[k]):
                mismatches.append((offset, step, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_products_above_the_held_limit_are_correct_and_not_held(restore_backend, monkeypatch):
    import threading

    from cliffcalc import products

    monkeypatch.setattr(kernels, "_HELD_PAIRS", 64 * 64)
    monkeypatch.setattr(kernels, "_held", threading.local())
    small = (dimension_10(64, 50), dimension_10(60, 51))
    large = (dimension_10(120, 52), dimension_10(100, 53))
    kernel_call(*small)
    before = held_tables()
    for a, b in (large, small, large):
        # every product runs the kernel, the small one inside the limit
        assert a.num_terms() * b.num_terms() > products._SMALL_CONTRACTION_PAIRS
        assert_backends_agree_exactly(a, b, Signature(6, 4))
        assert all(table.size <= 64 * 64 for table in held_tables())
    assert all(x is y for x, y in zip(held_tables(), before))


def null_products():
    """a, b with a b == 0 term by term: a = n X and b = n Y for the null
    vector n = e_1 + e_7 of Cl(6,4), so every sum cancels exactly."""
    n = Multivector({(1,): 1.0, (7,): 1.0})
    x = Multivector({(2,): 1.5, (3, 4): -2.0, (5,): 0.5, (2, 6, 8): 3.0, (9, 10): -1.0, (): 2.0, (4,): 4.0})
    y = Multivector({(3,): 2.0, (2, 5): 0.25, (6, 9): -3.0, (): -1.0, (8, 10): 1.0, (4, 5, 6): 6.0, (10,): -0.5})
    sig = Signature(6, 4)
    return geometric_product(n, x, sig), geometric_product(n, y, sig)


def coefficient_bits(terms):
    return [(blade, int(np.float64(c).view(np.uint64))) for blade, c in terms]


def test_the_unmasked_kernel_matches_the_python_backend_bit_for_bit(restore_backend):
    # Cl(6,4) has no generator squaring to 0, so its geometric product keeps
    # every pair and bincount reads the whole table: pair products that
    # underflow to ±0.0 (1e-200 * 1e-200) are summed, and sums that cancel
    # are dropped at the end, as in the per-pair path
    from cliffcalc import products

    sig = Signature(6, 4)
    rng = np.random.default_rng(31)
    indices = np.arange(1, 11)
    seen_underflow = seen_cancelled = False
    for _ in range(6):
        a = float_multivector(rng, indices, 20, CANCELLING)
        b = float_multivector(rng, indices, 20, CANCELLING)
        assert a.num_terms() * b.num_terms() > products._SMALL_PAIRS
        kernels.set_backend("numpy")
        packed = list(geometric_product(a, b, sig).terms())
        kernels.set_backend("python")
        per_pair = list(geometric_product(a, b, sig).terms())
        assert coefficient_bits(packed) == coefficient_bits(per_pair)
        seen_underflow |= any(ca * cb == 0.0 for _, ca in a.terms() for _, cb in b.terms())
        reached = np.unique(np.bitwise_xor.outer(_operands(a._terms)[0], _operands(b._terms)[0]))
        seen_cancelled |= len(packed) < reached.size
    assert seen_underflow and seen_cancelled

    a, b = null_products()
    assert a.num_terms() * b.num_terms() > products._SMALL_PAIRS
    keys, coeffs = kernel_call(a, b, sig)
    assert keys.size == 0 and coeffs.size == 0
    for backend in ("numpy", "python"):
        kernels.set_backend(backend)
        assert geometric_product(a, b, sig).is_zero()


def test_the_unmasked_kernel_overflows_like_the_python_backend(restore_backend):
    import math

    sig = Signature(6, 4)
    rng = np.random.default_rng(32)
    huge = (1e300, -1e300, 1e200, 3.0, -0.5)
    for _ in range(4):
        a = float_multivector(rng, np.arange(1, 11), 12, huge)
        b = float_multivector(rng, np.arange(1, 11), 12, huge)
        results = []
        for backend in ("numpy", "python"):
            kernels.set_backend(backend)
            results.append(list(geometric_product(a, b, sig).terms()))
        packed, per_pair = results
        assert [blade for blade, _ in packed] == [blade for blade, _ in per_pair]
        assert any(math.isinf(c) for _, c in packed)
        for (_, c_n), (_, c_p) in zip(packed, per_pair):
            # a NaN's sign bit may differ between the two paths
            assert math.isnan(c_n) == math.isnan(c_p)
            if not math.isnan(c_n):
                assert np.float64(c_n).view(np.uint64) == np.float64(c_p).view(np.uint64)
