import numpy as np
import pytest
from hypothesis import example, given, settings
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
    COUNT_MAX,
    DROP_WIDTHS,
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    hamming_matrix,
    majority,
    permute_drop,
    permute_shift,
    PlaneCounter,
    plane_compare,
    plane_counts,
    plane_majority,
    plane_sum,
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
    """Counts of 1 to 5 bundles of 1 to 70 000 rows, in int16, int64 or uint64.

    Half of each row's counts lie within one of half the bundle size, so ties
    and near-ties occur; all stay inside the signed 16-bit range, so above a
    size of 65 534 half the size is out of every count's reach.
    """
    dim = 128 * draw(st.integers(1, 16))
    sizes = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 70_000)), min_size=1, max_size=5))
    dtype = draw(st.sampled_from([np.int16, np.int64, np.uint64]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for n in sizes:
        near_half = n // 2 + gen.integers(-1, 2, size=dim)
        uniform = gen.integers(0, n + 1, size=dim)
        rows.append(np.where(gen.integers(0, 2, size=dim), near_half, uniform).clip(0, COUNT_MAX))
    return np.stack(rows).astype(dtype), np.array(sizes)


class TestMajority:
    @settings(max_examples=60, deadline=None)
    @given(_bundles())
    @example((np.full((3, 256), COUNT_MAX, dtype=np.uint64), np.array([65534, 65535, 65536])))
    @example((np.full((4, 128), COUNT_MAX, dtype=np.int16), np.array([65534, 65536, 65537, 70_000])))
    @example((np.full((2, 128), 35000 // 2, dtype=np.int64), np.array([35000, 35001])))
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


# Window counts across the uint8 partial sum's 255 and every power of two up to 512.
_PLANE_BOUNDARIES = sorted({w + d for w in (255, *(2**k for k in range(1, 10))) for d in (-1, 0, 1)})


class TestCountPlanes:
    """PlaneCounter and plane_sum against the unpacked sum of the same rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        windows=st.one_of(st.integers(0, 600), st.sampled_from(_PLANE_BOUNDARIES)),
        lanes=st.integers(1, 3),
        rows=st.integers(1, 2),
        words=st.sampled_from([2, 4]),
        ones=st.sampled_from([0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planes_give_the_unpacked_sum_and_its_majority(self, windows, lanes, rows, words, ones, seed):
        gen = np.random.default_rng(seed)
        bits = (gen.random((windows, lanes, rows, 64 * words)) < ones).astype(np.uint8)
        # an odd window count is paired with a zero row, as the n-gram encoder pairs them
        packed = np.zeros((windows + windows % 2, lanes, rows, words), dtype=np.uint64)
        packed[:windows] = np.packbits(bits, axis=-1).view(np.uint64)
        counter = PlaneCounter(len(packed), (lanes, rows, words))
        for a, b in zip(packed[0::2], packed[1::2]):
            counter.add(a, b)
        size = windows * lanes
        planes = plane_sum(counter.finish())[: size.bit_length()]
        counts = bits.sum(axis=(0, 1), dtype=np.int16)
        assert planes.shape == (size.bit_length(), rows, words)
        assert np.array_equal(plane_counts(planes), counts)
        if size == 0:
            with pytest.raises(EmptyBundleError):
                plane_majority(planes, size)
            return
        # odd and even sizes: ties (even sizes only) take majority's tie bits
        assert np.array_equal(plane_majority(planes, size), majority(counts, [size] * rows))

    @given(value=st.integers(0, 70), seed=st.integers(0, 2**32 - 1))
    def test_compare_equals_unpacked_compare(self, value, seed):
        counts = np.random.default_rng(seed).integers(0, 40, size=(2, 128))
        planes = np.stack([np.packbits((counts >> k) & 1, axis=-1).view(np.uint64) for k in range(6)])
        gt, eq = plane_compare(planes, value)
        unpack = lambda words: np.unpackbits(words.view(np.uint8), axis=-1)
        assert np.array_equal(unpack(gt), counts > value)
        assert np.array_equal(unpack(eq), counts == value)

    def test_counts_into_out(self):
        counter = PlaneCounter(6, (2, 2))
        for _ in range(3):
            counter.add(*np.full((2, 2, 2), 2**64 - 1, dtype=np.uint64))
        out = np.empty((2, 128), dtype=np.int16)
        assert plane_counts(counter.finish(), out=out) is out and (out == 6).all()


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

    def test_shift_on_matrix_moves_each_row(self, rng):
        m = random_bits(3, 128, rng)
        # s is checked against the width, not the row count
        assert np.array_equal(permute_shift(m, 5), np.roll(m, -5, axis=1))
        assert np.array_equal(permute_shift(m, 127)[1], permute_shift(m[1], 127))
        with pytest.raises(ValueError):
            permute_shift(m, 128)

    def test_drop_identity(self, rng):
        # refilling the tail with the dropped head gives back the circular shift
        x = _rand(2048, rng)
        for w in DROP_WIDTHS:
            assert np.array_equal(permute_drop(x, x[:w]), permute_shift(x, w))

    def test_drop_head_matches_shift(self, rng):
        x = _rand(2048, rng)
        tail = rng.integers(0, 2, size=8, dtype=np.uint8)
        y = permute_drop(x, tail)
        assert np.array_equal(y[: 2048 - 8], x[8:])
        assert np.array_equal(y[2048 - 8 :], tail)

    def test_drop_differs_from_shift_only_in_tail(self, rng):
        x = _rand(2048, rng)
        tail = rng.integers(0, 2, size=16, dtype=np.uint8)
        d = _dist(permute_drop(x, tail), permute_shift(x, 16))
        assert d <= 16

    def test_drop_on_matrix_takes_one_tail_per_row(self, rng):
        m = random_bits(3, 256, rng)
        tails = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        y = permute_drop(m, tails)
        for row in range(3):
            assert np.array_equal(y[row], permute_drop(m[row], tails[row]))

    def test_drop_unsupported_width(self, rng):
        x = _rand(128, rng)
        for width in (0, 4):
            with pytest.raises(ConfigError):
                permute_drop(x, np.zeros(width, dtype=np.uint8))


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
