import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hdcam.errors import (
    AlignmentError,
    ConfigError,
    DimensionError,
    EmptyBundleError,
    SaturationError,
)
from hdcam import learner
from hdcam.hvcore import (
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    hamming_matrix,
    majority,
    permute_drop,
    permute_shift,
    random_bits,
)
from hdcam.learner import Encoded, SimilarityBackend, train


def hv_from_hex(dim, hexstring):
    return np.unpackbits(np.frombuffer(bytes.fromhex(hexstring), dtype=np.uint8))[:dim]


def hv_to_hex(bits):
    return np.packbits(bits).tobytes().hex()

# Frozen output of the pcg64 stream for seed 7 at dim 128.
GOLDEN_HV_128_SEED7 = "b99f531a0e2b70a92d0e568c90f641db"
# Frozen tie-break bits for the default tie seed at dim 128.
GOLDEN_TIE_BITS_128 = "2da748e336e6e1cb55908e83e33f5146"

bits128 = arrays(np.uint8, 128, elements=st.integers(0, 1))
DOT = SimilarityBackend(kind="ideal_dot")


def _hv(bits):
    return np.asarray(bits, dtype=np.uint8)


def _rand(dim, rng):
    """One random bit row."""
    return random_bits(1, dim, rng)[0]


def _zeros(dim):
    return np.zeros(dim, dtype=np.int16)


def _dist(a, b):
    return int(hamming_matrix(a, b)[0, 0])


def _ideal_dot(a, b, size_a=1, size_b=1):
    """The ideal_dot score of two bundles (count row, size), as predict computes it.

    A bit row is a bundle of size one whose counts are its bits; its centred
    counts are -(1 - 2*bit) / 2, so two bit rows score a quarter of their
    bipolar dot product, dim - 2 * hamming.
    """
    rows = [learner._centred(np.asarray(c)[None], [n]) for c, n in ((a, size_a), (b, size_b))]
    return learner._score(*rows, DOT)[0, 0]


class TestRandomHV:
    def test_golden_vector(self):
        hv = _rand(128, Rng(7))
        assert hv_to_hex(hv) == GOLDEN_HV_128_SEED7
        assert np.array_equal(hv, hv_from_hex(128, GOLDEN_HV_128_SEED7))

    @pytest.mark.parametrize("dim", range(128, 2049, 128))
    def test_bit_matrix_is_the_same_stream(self, dim):
        rng = Rng(dim)
        rows = [_rand(dim, rng) for _ in range(5)]
        follow = _rand(dim, rng)
        rng = Rng(dim)
        assert np.array_equal(random_bits(5, dim, rng), np.stack(rows))
        assert np.array_equal(_rand(dim, rng), follow)

    def test_same_seed_same_stream(self):
        assert np.array_equal(_rand(256, Rng(11)), _rand(256, Rng(11)))

    def test_distinct_seeds_near_half_distance(self):
        for s in range(4):
            a = _rand(2048, Rng(100 + s))
            b = _rand(2048, Rng(200 + s))
            assert 1024 - 150 <= _dist(a, b) <= 1024 + 150

    @pytest.mark.parametrize("dim", [100, 0, -128, 2049, 2176])
    def test_alignment_errors(self, dim, rng):
        with pytest.raises(AlignmentError):
            random_bits(1, dim, rng)


class TestBind:
    def test_self_inverse(self, rng):
        x = _rand(256, rng)
        assert np.array_equal(bind(x, x), np.zeros(256))

    def test_zero_identity(self, rng):
        x = _rand(256, rng)
        assert np.array_equal(bind(x, _hv(np.zeros(256))), x)

    def test_truth_table_leading_nibble(self):
        a = np.zeros(128, dtype=np.uint8)
        b = np.zeros(128, dtype=np.uint8)
        a[:4] = [1, 0, 1, 0]
        b[:4] = [0, 1, 1, 0]
        out = bind(a, b)
        assert list(out[:4]) == [1, 1, 0, 0]

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            bind(_rand(128, rng), _rand(256, rng))

    @given(a=bits128, b=bits128)
    def test_commutative(self, a, b):
        assert np.array_equal(bind(a, b), bind(b, a))

    @given(a=bits128, b=bits128, c=bits128)
    def test_associative(self, a, b, c):
        assert np.array_equal(bind(bind(a, b), c), bind(a, bind(b, c)))

    @given(x=bits128, a=bits128, b=bits128)
    def test_distance_preserving(self, x, a, b):
        assert _dist(bind(x, a), bind(x, b)) == _dist(a, b)


class TestBundle:
    def test_add_increments_where_one(self):
        counts = _zeros(128)
        out = bundle_add(counts, _hv([1, 0, 1] + [0] * 125))
        assert out.dtype == np.int16
        assert list(out[:3]) == [1, 0, 1]
        assert not counts.any()  # the input row is not mutated

    def test_add_preserves_untouched_counts(self):
        counts = _zeros(128)
        counts[:2] = [5, 2]
        out = bundle_add(counts, _hv([0, 1] + [0] * 126))
        assert list(out[:2]) == [5, 3]
        assert not out[2:].any()

    def test_add_saturation(self):
        with pytest.raises(SaturationError):
            bundle_add(np.full(128, 32767, dtype=np.int16), _hv([1] + [0] * 127))

    def test_sub_inverse_of_add(self, rng):
        h = _rand(128, rng)
        assert np.array_equal(bundle_sub(bundle_add(_zeros(128), h), h, 1), _zeros(128))

    def test_sub_decrements(self):
        counts = _zeros(128)
        counts[:2] = [5, 3]
        out = bundle_sub(counts, _hv([0, 1] + [0] * 126), 4)
        assert list(out[:2]) == [5, 2]
        assert list(counts[:2]) == [5, 3]  # the input row is not mutated

    def test_sub_underflow(self):
        with pytest.raises(SaturationError):
            bundle_sub(np.full(128, -32768, dtype=np.int16), _hv([1] + [0] * 127), 3)

    def test_sub_on_empty_bundle(self, rng):
        with pytest.raises(EmptyBundleError):
            bundle_sub(_zeros(128), _rand(128, rng), 0)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            bundle_add(_zeros(256), _rand(128, rng))
        with pytest.raises(DimensionError):
            bundle_sub(_zeros(256), _rand(128, rng), 3)

    def test_pure_addition_count_range(self, rng):
        counts = _zeros(128)
        for _ in range(9):
            counts = bundle_add(counts, _rand(128, rng))
        assert counts.min() >= 0 and counts.max() <= 9


class TestBinarize:
    def test_majority_of_three(self):
        counts = _zeros(128)
        counts[:3] = [3, 0, 2]
        out = binarize(counts, 3)
        assert list(out[:3]) == [1, 0, 1]

    def test_single_bundle_roundtrip(self, rng):
        hv = _rand(256, rng)
        assert np.array_equal(binarize(bundle_add(_zeros(256), hv), 1), hv)

    def test_tie_break_golden(self):
        assert hv_to_hex(binarize(np.ones(128, dtype=np.int16), 2)) == GOLDEN_TIE_BITS_128

    def test_tie_break_reproducible(self):
        counts = np.ones(128, dtype=np.int16)
        assert np.array_equal(binarize(counts, 2), binarize(counts, 2))

    def test_empty_bundle_error(self):
        with pytest.raises(EmptyBundleError):
            binarize(_zeros(128), 0)

    @given(h=bits128, g=bits128)
    def test_majority_dominance(self, h, g):
        # bundle {h, h, g} binarizes to h everywhere, covering all bit combos
        counts = _zeros(128)
        for hv in (h, h, g):
            counts = bundle_add(counts, hv)
        assert np.array_equal(binarize(counts, 3), h)


def _reference_majority(counts, n):
    """Majority bits of one bundle: 2 * count against the bundle size, exact
    ties from the fixed per-width tie-break draw."""
    doubled = 2 * counts.astype(np.int64)
    bits = (doubled > n).astype(np.uint8)
    tie_bits = np.random.default_rng([1021, len(counts)]).integers(0, 2, size=len(counts), dtype=np.uint8)
    return np.where(doubled == n, tie_bits, bits)


@st.composite
def _bundles(draw):
    dim = 128 * draw(st.integers(1, 16))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.stack([gen.integers(0, n + 1, size=dim) for n in sizes]).astype(np.int16)
    return counts, np.array(sizes)


class TestMajority:
    @settings(max_examples=60, deadline=None)
    @given(_bundles())
    def test_equals_per_row_binarize(self, bundle):
        counts, sizes = bundle
        bits = majority(counts, sizes)
        assert bits.dtype == np.uint8 and bits.shape == counts.shape
        for row, n, out in zip(counts, sizes, bits):
            assert np.array_equal(out, binarize(row, int(n)))
            assert np.array_equal(out, _reference_majority(row, n))

    def test_rows_share_one_tie_draw(self):
        counts = np.ones((3, 256), dtype=np.int16)
        bits = majority(counts, [2, 2, 2])
        assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[0], bits[2])
        assert np.array_equal(bits[0], _reference_majority(counts[0], 2))

    def test_empty_bundle_error(self):
        with pytest.raises(EmptyBundleError):
            majority(np.zeros((2, 128), dtype=np.int16), [3, 0])

    def test_saturation_error(self):
        counts = np.full((1, 128), 40000, dtype=np.int64)
        with pytest.raises(SaturationError):
            majority(counts, [50000])


class TestPermute:
    def test_shift_identity(self, rng):
        x = _rand(128, rng)
        y = permute_shift(x, 0)
        assert np.array_equal(y, x) and y is not x

    def test_shift_moves_left(self, rng):
        x = _rand(128, rng)
        y = permute_shift(x, 3)
        assert np.array_equal(y, x[np.arange(128) + 3 - 128])
        assert y[0] == x[3]

    def test_shift_out_of_range(self, rng):
        x = _rand(128, rng)
        with pytest.raises(ValueError):
            permute_shift(x, 128)
        with pytest.raises(ValueError):
            permute_shift(x, -1)

    @given(x=bits128, a=st.integers(0, 127), b=st.integers(0, 127))
    def test_shift_composition(self, x, a, b):
        lhs = permute_shift(permute_shift(x, a), b)
        assert np.array_equal(lhs, permute_shift(x, (a + b) % 128))
        assert np.array_equal(permute_shift(x, a), np.roll(x, -a))

    @given(x=bits128, a=bits128, s=st.integers(0, 127))
    def test_shift_distance_preserving(self, x, a, s):
        assert _dist(permute_shift(x, s), permute_shift(a, s)) == _dist(x, a)

    def test_drop_identity(self, rng):
        x = _rand(128, rng)
        y = permute_drop(x, 0, rng)
        assert np.array_equal(y, x) and y is not x

    def test_drop_head_matches_shift(self, rng):
        x = _rand(2048, rng)
        y = permute_drop(x, 8, rng)
        assert np.array_equal(y[: 2048 - 8], x[8:])

    def test_drop_differs_from_shift_only_in_tail(self, rng):
        x = _rand(2048, rng)
        d = _dist(permute_drop(x, 8, rng), permute_shift(x, 8))
        assert d <= 8

    def test_drop_unsupported_width(self, rng):
        x = _rand(128, rng)
        with pytest.raises(ConfigError):
            permute_drop(x, 4, rng)


class TestSimilarity:
    def test_hamming_self(self, rng):
        x = _rand(256, rng)
        assert _dist(x, x) == 0

    def test_hamming_complement(self, rng):
        x = _rand(256, rng)
        assert _dist(x, x ^ 1) == 256

    def test_hamming_small_example(self):
        a = _hv([1, 0, 1, 0] + [0] * 124)
        b = _hv([0, 1, 1, 0] + [0] * 124)
        assert _dist(a, b) == 2

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(128, 2048), st.integers(0, 2**32 - 1))
    def test_hamming_matrix_matches_brute_force(self, n_a, n_b, width, seed):
        gen = np.random.default_rng(seed)
        a = gen.integers(0, 2, (n_a, width), dtype=np.uint8)
        b = gen.integers(0, 2, (n_b, width), dtype=np.uint8)
        dists = hamming_matrix(a, b)
        assert dists.dtype == np.int64 and dists.shape == (n_a, n_b)
        for i in range(n_a):
            for j in range(n_b):
                assert dists[i, j] == np.count_nonzero(a[i] != b[j])

    def test_dot_self(self, rng):
        x = _rand(512, rng)
        assert 4 * _ideal_dot(x, x) == 512

    @given(a=bits128, b=bits128)
    def test_dot_hamming_identity(self, a, b):
        assert 4 * _ideal_dot(a, b) + 2 * _dist(a, b) == 128

    def test_dot_orthogonal_near_zero(self):
        for s in range(6):
            a = _rand(2048, Rng(300 + s))
            b = _rand(2048, Rng(400 + s))
            assert abs(4 * _ideal_dot(a, b)) < 5 * np.sqrt(2048)

    def test_dot_accumulator_centered(self, rng):
        counts = bundle_add(_zeros(128), _rand(128, rng))
        # centered counts are +-1/2, so the self dot is dim/4
        assert _ideal_dot(counts, counts) == pytest.approx(128 / 4)

    def test_dot_accumulator_pair_sign(self, rng):
        hv = _rand(128, rng)
        a = bundle_add(_zeros(128), hv)
        b = bundle_add(_zeros(128), hv ^ 1)
        assert _ideal_dot(a, b) == pytest.approx(-128 / 4)


class TestTypes:
    def test_counts_out_of_range(self):
        # 32,768 copies of one all-ones row in one class: its counts pass 32,767.
        bits = np.ones((32768, 128), dtype=np.uint8)
        batch = Encoded(bits, bits, np.ones(len(bits), dtype=np.int64), [0] * len(bits))
        with pytest.raises(SaturationError):
            train(batch)
        assert train(batch[1:]).counts.max() == 32767
