import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hdcam.errors import (
    AlignmentError,
    ConfigError,
    DimensionError,
    EmptyBundleError,
    SaturationError,
)
from hdcam.hvcore import (
    AccumulatorHV,
    BipolarHV,
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    dot_bipolar,
    hamming,
    permute_drop,
    permute_shift,
    random_hv,
)


def hv_from_hex(dim, hexstring):
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(hexstring), dtype=np.uint8))
    return BipolarHV(dim, bits[:dim])


def hv_to_hex(hv):
    return np.packbits(hv.bits).tobytes().hex()

# Frozen output of the pcg64 stream for seed 7 at dim 128.
GOLDEN_HV_128_SEED7 = "b99f531a0e2b70a92d0e568c90f641db"
# Frozen tie-break bits for the default tie seed at dim 128.
GOLDEN_TIE_BITS_128 = "2da748e336e6e1cb55908e83e33f5146"

bits128 = arrays(np.uint8, 128, elements=st.integers(0, 1))


def _hv(bits):
    return BipolarHV(len(bits), np.asarray(bits, dtype=np.uint8))


class TestRandomHV:
    def test_golden_vector(self):
        hv = random_hv(128, Rng(7))
        assert hv_to_hex(hv) == GOLDEN_HV_128_SEED7
        assert hv == hv_from_hex(128, GOLDEN_HV_128_SEED7)

    def test_same_seed_same_stream(self):
        assert random_hv(256, Rng(11)) == random_hv(256, Rng(11))

    def test_distinct_seeds_near_half_distance(self):
        for s in range(4):
            a = random_hv(2048, Rng(100 + s))
            b = random_hv(2048, Rng(200 + s))
            assert 1024 - 150 <= hamming(a, b) <= 1024 + 150

    @pytest.mark.parametrize("dim", [100, 0, -128, 2049, 2176])
    def test_alignment_errors(self, dim, rng):
        with pytest.raises(AlignmentError):
            random_hv(dim, rng)


class TestBind:
    def test_self_inverse(self, rng):
        x = random_hv(256, rng)
        assert bind(x, x) == _hv(np.zeros(256))

    def test_zero_identity(self, rng):
        x = random_hv(256, rng)
        zero = _hv(np.zeros(256))
        assert bind(x, zero) == x

    def test_truth_table_leading_nibble(self):
        a = np.zeros(128, dtype=np.uint8)
        b = np.zeros(128, dtype=np.uint8)
        a[:4] = [1, 0, 1, 0]
        b[:4] = [0, 1, 1, 0]
        out = bind(_hv(a), _hv(b))
        assert list(out.bits[:4]) == [1, 1, 0, 0]

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            bind(random_hv(128, rng), random_hv(256, rng))

    @given(a=bits128, b=bits128)
    def test_commutative(self, a, b):
        assert bind(_hv(a), _hv(b)) == bind(_hv(b), _hv(a))

    @given(a=bits128, b=bits128, c=bits128)
    def test_associative(self, a, b, c):
        assert bind(bind(_hv(a), _hv(b)), _hv(c)) == bind(_hv(a), bind(_hv(b), _hv(c)))

    @given(x=bits128, a=bits128, b=bits128)
    def test_distance_preserving(self, x, a, b):
        assert hamming(bind(_hv(x), _hv(a)), bind(_hv(x), _hv(b))) == hamming(_hv(a), _hv(b))


class TestBundle:
    def test_add_increments_where_one(self):
        acc = AccumulatorHV.zeros(128)
        hv = _hv([1, 0, 1] + [0] * 125)
        out = bundle_add(acc, hv)
        assert list(out.counts[:3]) == [1, 0, 1]
        assert out.n_bundled == 1

    def test_add_preserves_untouched_counts(self):
        counts = np.zeros(128, dtype=np.int16)
        counts[:2] = [5, 2]
        acc = AccumulatorHV(128, counts, n_bundled=7)
        out = bundle_add(acc, _hv([0, 1] + [0] * 126))
        assert list(out.counts[:2]) == [5, 3]
        assert out.n_bundled == 8

    def test_add_saturation(self):
        acc = AccumulatorHV(128, np.full(128, 32767, dtype=np.int16), n_bundled=5)
        with pytest.raises(SaturationError):
            bundle_add(acc, _hv([1] + [0] * 127))

    def test_sub_inverse_of_add(self, rng):
        acc = AccumulatorHV.zeros(128)
        h = random_hv(128, rng)
        assert bundle_sub(bundle_add(acc, h), h) == acc

    def test_sub_decrements(self):
        counts = np.zeros(128, dtype=np.int16)
        counts[:2] = [5, 3]
        acc = AccumulatorHV(128, counts, n_bundled=4)
        out = bundle_sub(acc, _hv([0, 1] + [0] * 126))
        assert list(out.counts[:2]) == [5, 2]
        assert out.n_bundled == 3

    def test_sub_underflow(self):
        acc = AccumulatorHV(128, np.full(128, -32768, dtype=np.int16), n_bundled=3)
        with pytest.raises(SaturationError):
            bundle_sub(acc, _hv([1] + [0] * 127))

    def test_sub_on_empty_bundle(self, rng):
        with pytest.raises(EmptyBundleError):
            bundle_sub(AccumulatorHV.zeros(128), random_hv(128, rng))

    def test_pure_addition_count_range(self, rng):
        acc = AccumulatorHV.zeros(128)
        for _ in range(9):
            acc = bundle_add(acc, random_hv(128, rng))
        assert acc.counts.min() >= 0 and acc.counts.max() <= 9


class TestBinarize:
    def test_majority_of_three(self):
        counts = np.zeros(128, dtype=np.int16)
        counts[:3] = [3, 0, 2]
        out = binarize(AccumulatorHV(128, counts, n_bundled=3))
        assert list(out.bits[:3]) == [1, 0, 1]

    def test_single_bundle_roundtrip(self, rng):
        hv = random_hv(256, rng)
        assert binarize(bundle_add(AccumulatorHV.zeros(256), hv)) == hv

    def test_tie_break_golden(self):
        acc = AccumulatorHV(128, np.ones(128, dtype=np.int16), n_bundled=2)
        assert hv_to_hex(binarize(acc)) == GOLDEN_TIE_BITS_128

    def test_tie_break_reproducible(self):
        acc = AccumulatorHV(128, np.ones(128, dtype=np.int16), n_bundled=2)
        assert binarize(acc) == binarize(acc)

    def test_empty_bundle_error(self):
        with pytest.raises(EmptyBundleError):
            binarize(AccumulatorHV.zeros(128))

    @given(h=bits128, g=bits128)
    def test_majority_dominance(self, h, g):
        # bundle {h, h, g} binarizes to h everywhere, covering all bit combos
        acc = AccumulatorHV.zeros(128)
        for hv in (_hv(h), _hv(h), _hv(g)):
            acc = bundle_add(acc, hv)
        assert binarize(acc) == _hv(h)


class TestPermute:
    def test_shift_identity(self, rng):
        x = random_hv(128, rng)
        assert permute_shift(x, 0) == x

    def test_shift_moves_left(self, rng):
        x = random_hv(128, rng)
        y = permute_shift(x, 3)
        assert np.array_equal(y.bits, x.bits[np.arange(128) + 3 - 128])
        assert y.bits[0] == x.bits[3]

    def test_shift_out_of_range(self, rng):
        x = random_hv(128, rng)
        with pytest.raises(ValueError):
            permute_shift(x, 128)
        with pytest.raises(ValueError):
            permute_shift(x, -1)

    @given(x=bits128, a=st.integers(0, 127), b=st.integers(0, 127))
    def test_shift_composition(self, x, a, b):
        lhs = permute_shift(permute_shift(_hv(x), a), b)
        assert lhs == permute_shift(_hv(x), (a + b) % 128)

    @given(x=bits128, a=bits128, s=st.integers(0, 127))
    def test_shift_distance_preserving(self, x, a, s):
        assert hamming(permute_shift(_hv(x), s), permute_shift(_hv(a), s)) == hamming(
            _hv(x), _hv(a)
        )

    def test_drop_identity(self, rng):
        x = random_hv(128, rng)
        assert permute_drop(x, 0, rng) == x

    def test_drop_head_matches_shift(self, rng):
        x = random_hv(2048, rng)
        y = permute_drop(x, 8, rng)
        assert np.array_equal(y.bits[: 2048 - 8], x.bits[8:])

    def test_drop_differs_from_shift_only_in_tail(self, rng):
        x = random_hv(2048, rng)
        d = hamming(permute_drop(x, 8, rng), permute_shift(x, 8))
        assert d <= 8

    def test_drop_unsupported_width(self, rng):
        x = random_hv(128, rng)
        with pytest.raises(ConfigError):
            permute_drop(x, 4, rng)


class TestSimilarity:
    def test_hamming_self(self, rng):
        x = random_hv(256, rng)
        assert hamming(x, x) == 0

    def test_hamming_complement(self, rng):
        x = random_hv(256, rng)
        assert hamming(x, _hv(x.bits ^ 1)) == 256

    def test_hamming_small_example(self):
        a = _hv([1, 0, 1, 0] + [0] * 124)
        b = _hv([0, 1, 1, 0] + [0] * 124)
        assert hamming(a, b) == 2

    def test_dot_self(self, rng):
        x = random_hv(512, rng)
        assert dot_bipolar(x, x) == 512

    @given(a=bits128, b=bits128)
    def test_dot_hamming_identity(self, a, b):
        assert dot_bipolar(_hv(a), _hv(b)) + 2 * hamming(_hv(a), _hv(b)) == 128

    def test_dot_orthogonal_near_zero(self):
        for s in range(6):
            a = random_hv(2048, Rng(300 + s))
            b = random_hv(2048, Rng(400 + s))
            assert abs(dot_bipolar(a, b)) < 5 * np.sqrt(2048)

    def test_dot_accumulator_centered(self, rng):
        hv = random_hv(128, rng)
        acc = bundle_add(AccumulatorHV.zeros(128), hv)
        # centered counts are +-1/2, so the self dot is dim/4
        assert dot_bipolar(acc, acc) == pytest.approx(128 / 4)

    def test_dot_accumulator_pair_sign(self, rng):
        hv = random_hv(128, rng)
        comp = _hv(hv.bits ^ 1)
        a = bundle_add(AccumulatorHV.zeros(128), hv)
        b = bundle_add(AccumulatorHV.zeros(128), comp)
        assert dot_bipolar(a, b) == pytest.approx(-128 / 4)


class TestTypes:
    def test_bits_read_only(self, rng):
        x = random_hv(128, rng)
        with pytest.raises(ValueError):
            x.bits[0] = 1

    def test_bad_bit_values(self):
        with pytest.raises(ValueError):
            BipolarHV(128, np.full(128, 2, dtype=np.uint8))

    def test_counts_out_of_range(self):
        with pytest.raises(SaturationError):
            AccumulatorHV(128, np.full(128, 40000, dtype=np.int64), 1)

    def test_negative_n_bundled(self):
        with pytest.raises(ValueError):
            AccumulatorHV(128, np.zeros(128, dtype=np.int16), -1)

    def test_rng_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            Rng(1, algorithm="mt19937")
