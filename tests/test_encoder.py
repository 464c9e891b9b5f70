import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdcam import encoder as enc_mod
from hdcam.cost import CostLedger
from hdcam.encoder import (
    EncodingConfig,
    build_item_memory,
    build_level_memory,
    encode_ngram,
    encode_record,
    quantize,
)
from hdcam.config import ExperimentConfig
from hdcam.datasets import SyntheticSpec, make_language_corpus, make_record_blobs
from hdcam.errors import ConfigError, DimensionError, GenerationError, TooManyLevelsError
from hdcam.experiments import build_encoding_context, encode_subset
from hdcam.hvcore import Rng, binarize, bind, bundle_add, hamming_matrix, permute_shift, random_bits


def _dist(a, b):
    return int(hamming_matrix(a, b)[0, 0])


class TestItemMemory:
    def test_quasi_orthogonality_band(self, rng):
        im = build_item_memory(26, 2048, rng)
        assert im.shape == (26, 2048) and im.dtype == np.uint8
        dists = hamming_matrix(im, im)
        lo, hi = 1024 - 4 * math.sqrt(2048), 1024 + 4 * math.sqrt(2048)
        for i in range(26):
            for j in range(i + 1, 26):
                assert lo <= dists[i, j] <= hi

    def test_single_symbol(self, rng):
        assert len(build_item_memory(1, 128, rng)) == 1

    def test_zero_symbols(self, rng):
        with pytest.raises(ValueError):
            build_item_memory(0, 128, rng)

    def test_generation_error_after_retry(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(
            enc_mod, "_pairwise_quasi_orthogonal", lambda rows: calls.append(1) and False
        )
        with pytest.raises(GenerationError):
            build_item_memory(3, 128, rng)
        assert len(calls) == 2


class TestLevelMemory:
    def test_two_levels_half_distance(self, rng):
        lm = build_level_memory(2, 2048, rng)
        assert lm.shape == (2, 2048) and lm.dtype == np.uint8
        assert _dist(lm[0], lm[1]) == 1024

    def test_five_levels_proportional(self, rng):
        lm = build_level_memory(5, 2048, rng)
        assert _dist(lm[0], lm[4]) == 1024
        assert _dist(lm[0], lm[2]) == 512

    def test_too_many_levels(self, rng):
        with pytest.raises(TooManyLevelsError):
            build_level_memory(2049, 2048, rng)

    def test_distance_monotone_in_separation(self, rng):
        lm = build_level_memory(9, 1024, rng)
        by_sep = {}
        for i in range(9):
            for j in range(i + 1, 9):
                by_sep.setdefault(j - i, []).append(_dist(lm[i], lm[j]))
        for d in range(2, 9):
            assert min(by_sep[d]) >= max(by_sep[d - 1])

    def test_endpoints_exact_even_when_uneven_blocks(self, rng):
        # 7 levels over 512 dims: 256 flips split into 6 blocks of 42/43
        lm = build_level_memory(7, 512, rng)
        assert _dist(lm[0], lm[6]) == 256


class TestQuantize:
    L = 4

    def test_min_maps_to_zero(self):
        assert quantize(0.0, self.L) == 0

    def test_max_maps_to_top(self):
        assert quantize(1.0, self.L) == 3

    def test_midpoint(self):
        assert quantize(0.5, self.L) == 2

    def test_clamping(self):
        assert quantize(-5.0, self.L) == 0
        assert quantize(5.0, self.L) == 3

    @given(x=st.floats(-1, 2), y=st.floats(-1, 2))
    def test_monotone(self, x, y):
        if x <= y:
            assert quantize(x, self.L) <= quantize(y, self.L)


def _toy_memories(n_features, dim, rng, L=4):
    im = build_item_memory(n_features, dim, rng)
    lm = build_level_memory(L, dim, rng)
    return im, lm


class TestEncodeRecord:
    def test_single_feature_equals_bound_vector(self, rng):
        im, lm = _toy_memories(1, 128, rng)
        counts, size = encode_record([0.6], im, lm)
        expected = bind(im[0], lm[quantize(0.6, 4)])
        assert counts.dtype == np.int16
        assert np.array_equal(counts, expected.astype(np.int16))
        assert size == 1

    def test_identical_features_identical_basis(self, rng):
        im = np.repeat(random_bits(1, 128, rng), 2, axis=0)
        lm = build_level_memory(4, 128, rng)
        counts, _ = encode_record([0.3, 0.3], im, lm)
        assert set(np.unique(counts)) <= {0, 2}

    def test_three_feature_brute_force(self, rng):
        im, lm = _toy_memories(3, 256, rng)
        features = [0.1, 0.5, 0.9]
        counts, size = encode_record(features, im, lm)
        expected = np.zeros(256, dtype=np.int64)
        for pos, x in enumerate(features):
            expected += im[pos] ^ lm[quantize(x, 4)]
        assert np.array_equal(counts, expected.astype(np.int16))
        assert size == 3

    def test_accumulation_order_irrelevant(self, rng):
        im, lm = _toy_memories(5, 256, rng)
        features = [0.1, 0.3, 0.5, 0.7, 0.9]
        counts, _ = encode_record(features, im, lm)
        shuffled = np.zeros(256, dtype=np.int16)
        for pos in [3, 0, 4, 1, 2]:
            shuffled = bundle_add(shuffled, bind(im[pos], lm[quantize(features[pos], 4)]))
        assert np.array_equal(counts, shuffled)

    def test_arity_mismatch(self, rng):
        im, lm = _toy_memories(3, 128, rng)
        with pytest.raises(DimensionError):
            encode_record([0.1, 0.2], im, lm)

    def test_cost_charges(self, rng):
        im, lm = _toy_memories(4, 128, rng)
        ledger = CostLedger(128)
        encode_record([0.1, 0.2, 0.3, 0.4], im, lm, ledger=ledger)
        assert ledger.count("multiplication") == 4
        assert ledger.count("addition") == 4
        assert ledger.count("permutation") == 0


class TestEncodeNgram:
    def test_n1_plain_bundle(self, rng):
        im = build_item_memory(4, 128, rng)
        cfg = EncodingConfig(scheme="record", n=1, dim=128)
        counts, size = encode_ngram([0, 1, 2], 1, im, cfg)
        expected = np.zeros(128, dtype=np.int64)
        for s in (0, 1, 2):
            expected += im[s]
        assert np.array_equal(counts, expected.astype(np.int16))
        assert size == 3

    def test_n1_reversal_invariant(self, rng):
        im = build_item_memory(4, 128, rng)
        cfg = EncodingConfig(scheme="record", n=1, dim=128)
        a, _ = encode_ngram([0, 1, 2], 1, im, cfg)
        b, _ = encode_ngram([2, 1, 0], 1, im, cfg)
        assert np.array_equal(a, b)

    def test_bigram_single_window(self, rng):
        im = build_item_memory(2, 128, rng)
        cfg = EncodingConfig(scheme="ngram", n=2, dim=128)
        counts, size = encode_ngram([0, 1], 2, im, cfg)
        gram = bind(permute_shift(im[0], 1), im[1])
        assert np.array_equal(counts, gram.astype(np.int16))
        assert size == 1

    def test_trigram_brute_force_shift_mode(self, rng):
        im = build_item_memory(5, 256, rng)
        cfg = EncodingConfig(scheme="ngram", n=3, dim=256)
        seq = [0, 3, 1, 4, 2]
        counts, size = encode_ngram(seq, 3, im, cfg)
        expected = np.zeros(256, dtype=np.int64)
        for t in range(len(seq) - 2):
            gram = im[seq[t + 2]] ^ permute_shift(im[seq[t + 1]], 1) ^ permute_shift(im[seq[t]], 2)
            expected += gram
        assert np.array_equal(counts, expected.astype(np.int16))
        assert size == 3

    def test_order_sensitive_for_n2(self, rng):
        im = build_item_memory(4, 256, rng)
        cfg = EncodingConfig(scheme="ngram", n=2, dim=256)
        a, _ = encode_ngram([0, 1, 2, 3], 2, im, cfg)
        b, _ = encode_ngram([3, 2, 1, 0], 2, im, cfg)
        assert not np.array_equal(a, b)

    def test_drop_mode_matches_shift_except_tail(self, rng):
        im = build_item_memory(3, 2048, rng)
        cfg = EncodingConfig(scheme="ngram", n=3, permute_mode="drop", drop_width=8, dim=2048)
        seq = [0, 1, 2]
        counts, _ = encode_ngram(seq, 3, im, cfg, rng=Rng(9))
        # same gram built with matched-displacement wrap-around shifts
        gram = im[2] ^ permute_shift(im[1], 8) ^ permute_shift(im[0], 16)
        diff = np.count_nonzero(counts != gram.astype(np.int16))
        assert diff <= 3 * 8
        assert np.array_equal(counts[: 2048 - 16], gram[: 2048 - 16].astype(np.int16))

    def test_too_short_sequence(self, rng):
        im = build_item_memory(3, 128, rng)
        cfg = EncodingConfig(scheme="ngram", n=3, dim=128)
        with pytest.raises(ValueError):
            encode_ngram([0, 1], 3, im, cfg)

    def test_drop_mode_needs_rng(self, rng):
        im = build_item_memory(3, 128, rng)
        cfg = EncodingConfig(scheme="ngram", n=2, permute_mode="drop", dim=128)
        with pytest.raises(ConfigError):
            encode_ngram([0, 1], 2, im, cfg, rng=None)

    def test_cost_charges_shift_vs_drop(self, rng):
        im = build_item_memory(4, 128, rng)
        seq = [0, 1, 2, 3]
        shift_ledger = CostLedger(128)
        cfg_s = EncodingConfig(scheme="ngram", n=3, dim=128)
        encode_ngram(seq, 3, im, cfg_s, ledger=shift_ledger)
        # 2 windows: 2 binds and 2 single-pass shifts each, one add per window
        assert shift_ledger.count("multiplication") == 4
        assert shift_ledger.count("permutation") == 4
        assert shift_ledger.count("addition") == 2
        drop_ledger = CostLedger(128)
        cfg_d = EncodingConfig(scheme="ngram", n=3, permute_mode="drop", drop_width=8, dim=128)
        encode_ngram(seq, 3, im, cfg_d, rng=Rng(3), ledger=drop_ledger)
        # drop mode applies k passes for the k-step permutation: (1+2) per window
        assert drop_ledger.count("permutation") == 6
        assert drop_ledger.count("multiplication") == 4


class TestEncodeSubset:
    """encode_subset equals per-sample encode_* plus binarize, drop-mode RNG stream included."""

    @pytest.mark.parametrize("scheme, permute_mode", [
        ("record", "shift"), ("ngram", "shift"), ("ngram", "drop"),
    ])
    def test_equals_per_sample_encoding(self, scheme, permute_mode):
        if scheme == "record":
            ds = make_record_blobs(SyntheticSpec(samples=30, classes=3, features=5), Rng(4))
        else:
            ds = make_language_corpus(SyntheticSpec(kind="languages", samples=12, text_length=20), Rng(4))
        encoding = EncodingConfig(scheme=scheme, permute_mode=permute_mode, dim=256)
        cfg = ExperimentConfig(dim=256, encoding=encoding)
        ctx = build_encoding_context(ds, cfg, 7)
        indices = [5, 0, 11, 3, 3, 9]
        ledger = CostLedger(256)
        batch = encode_subset(ds, indices, ctx, cfg, Rng(8), ledger)
        rng, expected_ledger = Rng(8), CostLedger(256)
        bundles = []
        for i in indices:
            if scheme == "record":
                x = (np.asarray(ds.samples[i]) - ctx.feature_min) / ctx.feature_range
                bundles.append(encode_record(x, ctx.item_memory, ctx.level_memory, expected_ledger))
            else:
                seq = [ctx.vocab[c] for c in ds.samples[i]]
                bundles.append(encode_ngram(seq, 3, ctx.item_memory, encoding, rng, expected_ledger))
        assert batch.counts.dtype == np.int16
        assert np.array_equal(batch.counts, np.stack([counts for counts, _ in bundles]))
        assert batch.sizes.tolist() == [size for _, size in bundles]
        assert np.array_equal(batch.bits, np.stack([binarize(*bundle) for bundle in bundles]))
        assert batch.labels == [ds.labels[i] for i in indices]
        assert ledger.counts == expected_ledger.counts


class TestEncodingConfig:
    def test_ngram_requires_n2(self):
        with pytest.raises(ConfigError):
            EncodingConfig(scheme="ngram", n=1)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            EncodingConfig(scheme="fourier")

    def test_bad_drop_width(self):
        with pytest.raises(ConfigError):
            EncodingConfig(drop_width=4)

    def test_bad_permute_mode(self):
        with pytest.raises(ConfigError):
            EncodingConfig(permute_mode="rotate")
