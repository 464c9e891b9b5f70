import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdcam import encoder as enc_mod
from hdcam import experiments
from hdcam.cost import CostLedger
from hdcam.encoder import (
    EncodingConfig,
    build_item_memory,
    build_level_memory,
    encode_ngram,
    encode_ngram_packed,
    encode_record,
    ngram_table,
    quantize,
    record_table,
)
from hdcam.config import ExperimentConfig
from hdcam.datasets import Dataset, SyntheticSpec, make_language_corpus, make_record_blobs
from hdcam.errors import ConfigError, DimensionError, GenerationError, SaturationError, TooManyLevelsError
from hdcam.experiments import build_encoding_context, encode_subset, run_classify, run_cluster
from hdcam.learner import ClusterSpec
from hdcam.hvcore import (
    COUNT_MAX,
    Rng,
    binarize,
    bind,
    bundle_add,
    hamming_matrix,
    majority,
    permute_shift,
    plane_counts,
    random_bits,
)


def _dist(a, b):
    return int(hamming_matrix(a, b)[0, 0])


def _bipolar(bits):
    """Bit rows as int64 bipolar rows, 1 - 2 * bits: a one-row bundle's sums."""
    return 1 - 2 * np.asarray(bits, dtype=np.int64)


def _sums(planes, size):
    """The int16 bipolar sums, size - 2 * counts, of bundles of size rows from their count planes."""
    sums = size - 2 * plane_counts(planes).astype(np.int64)
    assert np.abs(sums).max(initial=0) <= COUNT_MAX
    return sums.astype(np.int16)


class TestItemMemory:
    def test_quasi_orthogonality_band(self, rng):
        im = build_item_memory(26, 2048, rng)
        assert im.shape == (26, 2048) and im.dtype == np.uint8
        dists = hamming_matrix(im, im)
        lo, hi = 1024 - 4 * math.sqrt(2048), 1024 + 4 * math.sqrt(2048)
        for i in range(26):
            for j in range(i + 1, 26):
                assert lo <= dists[i, j] <= hi

    def test_memory_of_800_symbols_is_bounded(self, rng):
        """The quasi-orthogonality check of 800 rows at dim 2048 peaks well
        below its 164 MB of pairwise XOR words."""
        build_item_memory(2, 2048, rng)
        tracemalloc.start()
        try:
            build_item_memory(800, 2048, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

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

    @given(xs=st.lists(st.floats(-1, 2), min_size=1, max_size=24))
    def test_elementwise_floor_clamp(self, xs):
        x = np.reshape(xs, (len(xs), 1))
        assert np.array_equal(quantize(x, self.L), [[_scalar_level(v, self.L)] for v in xs])


def _scalar_level(x, L):
    return min(max(math.floor(x * L), 0), L - 1)


def _record_row(x, im, lm):
    """One feature row's sums, encoded feature by feature: the per-row reference."""
    sums = np.zeros(im.shape[1], dtype=np.int16)
    for pos, v in enumerate(x):
        sums = bundle_add(sums, bind(im[pos], lm[_scalar_level(v, len(lm))]))
    return sums


def _record_sums(features, im, lm):
    """encode_record's sums, rebuilt from its count planes."""
    planes, size = encode_record(features, record_table(im, lm))
    assert planes.dtype == np.uint64
    assert planes.shape == (size.bit_length(), len(features), im.shape[1] // 64)
    return _sums(planes, size), size


def _toy_memories(n_features, dim, rng, L=4):
    im = build_item_memory(n_features, dim, rng)
    lm = build_level_memory(L, dim, rng)
    return im, lm


class TestEncodeRecord:
    def test_single_feature_equals_bound_vector(self, rng):
        im, lm = _toy_memories(1, 128, rng)
        sums, size = _record_sums([[0.6], [0.1]], im, lm)
        assert sums.dtype == np.int16 and sums.shape == (2, 128)
        assert np.array_equal(sums[0], _bipolar(bind(im[0], lm[quantize(0.6, 4)])))
        assert np.array_equal(sums[1], _bipolar(bind(im[0], lm[quantize(0.1, 4)])))
        assert size == 1

    def test_identical_features_identical_basis(self, rng):
        im = np.repeat(random_bits(1, 128, rng), 2, axis=0)
        lm = build_level_memory(4, 128, rng)
        sums, _ = _record_sums([[0.3, 0.3], [0.9, 0.9]], im, lm)
        assert set(np.unique(sums)) <= {-2, 2}

    def test_three_feature_brute_force(self, rng):
        im, lm = _toy_memories(3, 256, rng)
        features = np.array([[0.1, 0.5, 0.9], [0.9, 0.0, 0.4], [1.0, 0.74, 0.26]])
        sums, size = _record_sums(features, im, lm)
        for row, x in zip(sums, features):
            expected = np.zeros(256, dtype=np.int64)
            for pos, v in enumerate(x):
                expected += _bipolar(im[pos] ^ lm[quantize(v, 4)])
            assert np.array_equal(row, expected)
        assert size == 3

    def test_accumulation_order_irrelevant(self, rng):
        im, lm = _toy_memories(5, 256, rng)
        features = [0.1, 0.3, 0.5, 0.7, 0.9]
        sums, _ = _record_sums([features], im, lm)
        shuffled = np.zeros(256, dtype=np.int16)
        for pos in [3, 0, 4, 1, 2]:
            shuffled = bundle_add(shuffled, bind(im[pos], lm[quantize(features[pos], 4)]))
        assert np.array_equal(sums[0], shuffled)

    def test_rows_equal_per_row_reference(self, rng):
        im, lm = _toy_memories(6, 256, rng, L=8)
        features = rng.uniform(-0.2, 1.2, size=(40, 6))
        sums, _ = _record_sums(features, im, lm)
        assert np.array_equal(sums, np.stack([_record_row(x, im, lm) for x in features]))

    @given(
        st.integers(1, 40), st.integers(2, 16), st.sampled_from([128, 256, 384, 512]),
        st.integers(1, 12), st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_per_row_reference(self, n_features, levels, dim, n, seed):
        rng = Rng(seed)
        im, lm = random_bits(n_features, dim, rng), random_bits(levels, dim, rng)
        features = rng.uniform(-0.2, 1.2, size=(n, n_features))
        sums, size = _record_sums(features, im, lm)
        assert size == n_features
        assert np.array_equal(sums, np.stack([_record_row(x, im, lm) for x in features]))

    def test_saturation_at_count_max_plus_one_features(self):
        # Every bound row is all ones, so each feature adds 1 to every count.
        im = np.ones((COUNT_MAX + 1, 128), dtype=np.uint8)
        lm = np.zeros((2, 128), dtype=np.uint8)
        features = np.zeros((1, COUNT_MAX + 1))
        sums, _ = _record_sums(features[:, :COUNT_MAX], im[:COUNT_MAX], lm)
        assert (sums == -COUNT_MAX).all()
        with pytest.raises(SaturationError):
            _record_sums(features, im, lm)

    def test_arity_mismatch(self, rng):
        im, lm = _toy_memories(3, 128, rng)
        with pytest.raises(DimensionError):
            encode_record([[0.1, 0.2]], record_table(im, lm))
        with pytest.raises(DimensionError):
            encode_record([0.1, 0.2, 0.3], record_table(im, lm))

    def test_nan_feature_rejected(self, rng):
        im, lm = _toy_memories(2, 128, rng)
        with pytest.raises(ValueError):
            encode_record([[0.1, 0.2], [0.3, float("nan")]], record_table(im, lm))

    def test_cost_charges(self, rng):
        im, lm = _toy_memories(4, 128, rng)
        ledger = CostLedger(128)
        encode_record(np.full((3, 4), 0.2), record_table(im, lm), ledger=ledger)
        assert list(ledger.counts.items()) == [("multiplication", 12), ("addition", 12)]


class TestEncodeNgram:
    def test_n1_plain_bundle(self, rng):
        im = build_item_memory(4, 128, rng)
        cfg = EncodingConfig(scheme="record", n=1, dim=128)
        sums, size = encode_ngram([0, 1, 2], 1, im, cfg)
        expected = np.zeros(128, dtype=np.int64)
        for s in (0, 1, 2):
            expected += _bipolar(im[s])
        assert sums.dtype == np.int16 and np.array_equal(sums, expected)
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
        sums, size = encode_ngram([0, 1], 2, im, cfg)
        gram = bind(permute_shift(im[0], 1), im[1])
        assert np.array_equal(sums, _bipolar(gram))
        assert size == 1

    def test_trigram_brute_force_shift_mode(self, rng):
        im = build_item_memory(5, 256, rng)
        cfg = EncodingConfig(scheme="ngram", n=3, dim=256)
        seq = [0, 3, 1, 4, 2]
        sums, size = encode_ngram(seq, 3, im, cfg)
        expected = np.zeros(256, dtype=np.int64)
        for t in range(len(seq) - 2):
            gram = im[seq[t + 2]] ^ permute_shift(im[seq[t + 1]], 1) ^ permute_shift(im[seq[t]], 2)
            expected += _bipolar(gram)
        assert np.array_equal(sums, expected)
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
        sums, _ = encode_ngram(seq, 3, im, cfg, rng=Rng(9))
        # same gram built with matched-displacement wrap-around shifts
        gram = im[2] ^ permute_shift(im[1], 8) ^ permute_shift(im[0], 16)
        diff = np.count_nonzero(sums != _bipolar(gram))
        assert diff <= 3 * 8
        assert np.array_equal(sums[: 2048 - 16], _bipolar(gram[: 2048 - 16]))

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
        assert shift_ledger.counts.get("multiplication", 0) == 4
        assert shift_ledger.counts.get("permutation", 0) == 4
        assert shift_ledger.counts.get("addition", 0) == 2
        drop_ledger = CostLedger(128)
        cfg_d = EncodingConfig(scheme="ngram", n=3, permute_mode="drop", drop_width=8, dim=128)
        encode_ngram(seq, 3, im, cfg_d, rng=Rng(3), ledger=drop_ledger)
        # drop mode applies k passes for the k-step permutation: (1+2) per window
        assert drop_ledger.counts.get("permutation", 0) == 6
        assert drop_ledger.counts.get("multiplication", 0) == 4


def _ngram_reference(seq, n, im, cfg, gen):
    """One sequence's n-gram sums, window by window and pass by pass, with
    one width-drop_width tail draw from gen per drop pass."""
    sums = np.zeros(im.shape[1], dtype=np.int64)
    for t in range(len(seq) - n + 1):
        gram = im[seq[t + n - 1]].copy()
        for k in range(1, n):
            row = im[seq[t + n - 1 - k]]
            if cfg.permute_mode == "shift":
                row = np.roll(row, -k)
            else:
                for _ in range(k):
                    tail = gen.integers(0, 2, size=cfg.drop_width, dtype=np.uint8)
                    row = np.concatenate((row[cfg.drop_width :], tail))
            gram ^= row
        sums += _bipolar(gram)
    return sums


def _packed_sums(symbols, n, im, cfg, rng=None, ledger=None):
    """encode_ngram_packed's sums, rebuilt from its count planes."""
    planes, windows = encode_ngram_packed(symbols, ngram_table(im, n, cfg), cfg, rng, ledger)
    block = np.shape(symbols)[:-1]
    assert planes.dtype == np.uint64 and planes.shape == (windows.bit_length(), *block, im.shape[1] // 64)
    return _sums(planes, windows), windows


NGRAM_ENCODERS = [pytest.param(encode_ngram, id="encode_ngram"),
                  pytest.param(_packed_sums, id="encode_ngram_packed")]


def _ranks(ds, text):
    """The item memory row of each character of text: its rank among the
    corpus's characters in code point order."""
    chars = sorted(set("".join(ds.samples)))
    return [chars.index(c) for c in text]


class TestEncodeNgramBlock:
    """encode_ngram, the per-window definition, and encode_ngram_packed, the
    run path's kernel (its sums rebuilt from the planes), against the
    per-sequence reference."""

    @pytest.mark.parametrize("encode", NGRAM_ENCODERS)
    @given(
        n=st.integers(1, 5),
        mode=st.sampled_from(["shift", "drop"]),
        width=st.sampled_from([8, 16]),
        dim=st.sampled_from([128, 256, 1024, 2048]),
        sequences=st.sampled_from([None, 0, 1, 2, 5]),  # None: one (T,) row
        extra=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_per_sequence_reference(self, encode, n, mode, width, dim, sequences,
                                                 extra, seed):
        im = build_item_memory(5, dim, Rng(seed))
        shape = (n + extra,) if sequences is None else (sequences, n + extra)
        symbols = np.random.default_rng(seed).integers(0, 5, size=shape)
        cfg = EncodingConfig(scheme="ngram" if n > 1 else "record", n=n, permute_mode=mode,
                             drop_width=width, dim=dim)
        rng, ref_gen, ledger = Rng(seed), Rng(seed), CostLedger(dim)
        sums, windows = encode(symbols, n, im, cfg, rng, ledger)
        assert sums.dtype == np.int16 and sums.shape == (*shape[:-1], dim)
        assert windows == extra + 1
        expected = [_ngram_reference(seq, n, im, cfg, ref_gen) for seq in symbols.reshape(-1, n + extra)]
        assert np.array_equal(sums, np.reshape(expected, sums.shape))
        # the block drew exactly the reference's tails, no more
        assert rng.integers(2**32) == ref_gen.integers(2**32)
        grams = len(expected) * windows
        passes = n * (n - 1) // 2 if mode == "drop" else n - 1
        charges = {"permutation": grams * passes, "multiplication": grams * (n - 1), "addition": grams}
        assert ledger.counts == {op: count for op, count in charges.items() if count}

    @pytest.mark.parametrize("encode", NGRAM_ENCODERS)
    def test_saturation_past_count_max_windows(self, encode):
        # All-ones item rows: every gram is all ones, so each window adds -1 to every sum.
        im = np.ones((2, 128), dtype=np.uint8)
        cfg = EncodingConfig(scheme="ngram", n=3, dim=128)
        sums, windows = encode(np.zeros(COUNT_MAX + 2, dtype=int), 3, im, cfg)
        assert windows == COUNT_MAX and (sums == -COUNT_MAX).all()
        with pytest.raises(SaturationError):
            encode(np.zeros(COUNT_MAX + 3, dtype=int), 3, im, cfg)

    @pytest.mark.parametrize("encode", NGRAM_ENCODERS)
    def test_packed_rejects_symbols_outside_the_item_memory(self, encode, rng):
        im = build_item_memory(4, 128, rng)
        cfg = EncodingConfig(scheme="ngram", n=2, permute_mode="drop", dim=128)
        for bad in ([0, 4, 1], [0, -1, 1]):
            state = rng.bit_generator.state
            with pytest.raises(IndexError):
                encode(bad, 2, im, cfg, rng)
            # rejected before any drop tail was drawn
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("width", [8, 16])
    def test_one_tail_draw_equals_per_pass_draws(self, width):
        # (sequences, windows, passes): the tails of one drop-mode block, sequence-major
        shape = (16, 99, 3)
        one = Rng(21).integers(0, 2, size=(*shape, width), dtype=np.uint8)
        gen = Rng(21)
        per_pass = [gen.integers(0, 2, size=width, dtype=np.uint8) for _ in range(math.prod(shape))]
        assert np.array_equal(one.reshape(-1, width), np.stack(per_pass))

    def test_row_is_one_sequence(self, rng):
        im = build_item_memory(4, 128, rng)
        cfg = EncodingConfig(scheme="ngram", n=3, dim=128)
        sums, windows = encode_ngram([0, 1, 2, 3, 1], 3, im, cfg)
        block, _ = encode_ngram([[0, 1, 2, 3, 1], [3, 2, 1, 0, 0]], 3, im, cfg)
        assert sums.shape == (128,) and windows == 3
        assert np.array_equal(block[0], sums)

    def test_block_charges_every_sequence(self, rng):
        im = build_item_memory(4, 128, rng)
        ledger = CostLedger(128)
        cfg = EncodingConfig(scheme="ngram", n=3, permute_mode="drop", dim=128)
        encode_ngram(np.zeros((4, 6), dtype=int), 3, im, cfg, Rng(1), ledger)
        # 4 sequences of 4 windows: 2 binds, 1 + 2 drop passes and one add per window
        assert ledger.counts == {"permutation": 48, "multiplication": 32, "addition": 16}


def _memories(ds, cfg, seed):
    """The item memory and, for records, the level memory that
    build_encoding_context draws from seed: V rows for a corpus of V distinct
    characters, or F item rows and then the levels for an (n, F) matrix."""
    rng = Rng(seed)
    if cfg.encoding.scheme == "ngram":
        return build_item_memory(len(set("".join(ds.samples))), cfg.dim, rng), None
    im = build_item_memory(ds.samples.shape[1], cfg.dim, rng)
    return im, build_level_memory(cfg.encoding.levels, cfg.dim, rng)


def _check_batch_mode(batch, mode, expected_sums):
    """A binary batch keeps no sums; a multibit one keeps the expected int16 sums."""
    if mode == "binary":
        assert batch.sums is None
    else:
        assert batch.sums.dtype == np.int16
        assert np.array_equal(batch.sums, expected_sums)


class TestEncodeSubset:
    """encode_subset equals per-sample encoding plus binarize, drop-mode RNG stream included."""

    ENCODINGS = (("record", "shift"), ("ngram", "shift"), ("ngram", "drop"))

    @pytest.mark.parametrize("scheme, permute_mode, mode", [
        *(pytest.param(scheme, permute, "binary", id=f"{scheme}-{permute}") for scheme, permute in ENCODINGS),
        *(pytest.param(scheme, permute, "multibit", id=f"{scheme}-{permute}-multibit")
          for scheme, permute in ENCODINGS),
    ])
    def test_equals_per_sample_encoding(self, scheme, permute_mode, mode, monkeypatch):
        if scheme == "record":
            ds = make_record_blobs(SyntheticSpec(samples=30, classes=3, features=5), Rng(4))
        else:
            ds = make_language_corpus(SyntheticSpec(kind="languages", samples=30, text_length=20), Rng(4))
            # ragged: runs of four equal-length lines, so runs and 16-row blocks both cut
            ds.samples = [text[: 20 - (i // 4) % 2] for i, text in enumerate(ds.samples)]
        # repeats, and more rows than a 16-row block
        indices = [5, 0, 11, 3, 3, 9, *range(29, -1, -1), 7]
        encoding = EncodingConfig(scheme=scheme, permute_mode=permute_mode, dim=256)
        cfg = ExperimentConfig(dim=256, mode=mode, encoding=encoding)
        ctx = build_encoding_context(ds, cfg, 7)
        im, lm = _memories(ds, cfg, 7)
        rng, expected_ledger = Rng(8), CostLedger(256)
        bundles = []
        if scheme == "record":
            lo, hi = ds.samples.min(axis=0), ds.samples.max(axis=0)
            for i in indices:
                x = (ds.samples[i] - lo) / np.where(hi > lo, hi - lo, 1.0)
                bundles.append(_record_row(x, im, lm))
            expected_ledger.charge("multiplication", 5 * len(indices))
            expected_ledger.charge("addition", 5 * len(indices))
        else:
            for i in indices:
                seq = _ranks(ds, ds.samples[i])
                bundles.append(encode_ngram(seq, 3, im, encoding, rng, expected_ledger)[0])
        # the default block (512 rows at dim 256) holds every index; blocks of
        # 1 and 16 rows cross sample and run boundaries
        for cells in (experiments.ENCODE_BLOCK_CELLS, 16 * 256, 256):
            monkeypatch.setattr(experiments, "ENCODE_BLOCK_CELLS", cells)
            ledger = CostLedger(256)
            batch = encode_subset(ds, indices, ctx, cfg, Rng(8), ledger)
            _check_batch_mode(batch, mode, np.stack(bundles))
            assert np.array_equal(batch.bits, np.stack([binarize(sums) for sums in bundles]))
            assert batch.labels == [ds.labels[i] for i in indices]
            assert ledger.counts == expected_ledger.counts

    @pytest.mark.parametrize("scheme", ["record", "ngram"])
    @pytest.mark.parametrize("mode", ["binary", "multibit"])
    def test_bits_are_packed_rows(self, scheme, mode):
        if scheme == "record":
            ds = make_record_blobs(SyntheticSpec(samples=20, classes=2, features=3), Rng(4))
        else:
            ds = make_language_corpus(SyntheticSpec(kind="languages", samples=20, text_length=9), Rng(4))
        cfg = ExperimentConfig(dim=384, mode=mode, encoding=EncodingConfig(scheme=scheme, dim=384))
        batch = encode_subset(ds, range(ds.n), build_encoding_context(ds, cfg, 7), cfg, Rng(8))
        assert batch.bits.dtype == np.uint64 and batch.bits.shape == (ds.n, 384 // 64)

    def test_multibit_sums_need_at_most_count_max_windows(self):
        # Random grams of 26 letters: no count of COUNT_MAX + 1 windows passes
        # COUNT_MAX, so the binary batch encodes; the multibit batch's sums
        # could leave int16 from that many rows on, so it raises.
        letters = np.random.default_rng(3).choice(list("abcdefghijklmnopqrstuvwxyz"), size=COUNT_MAX + 3)
        ds = Dataset("text_corpus", ["".join(letters), "".join(letters[1:])], ["x", "y"])
        batches = {}
        for mode in ("binary", "multibit"):
            cfg = ExperimentConfig(dim=128, mode=mode, encoding=EncodingConfig(scheme="ngram", dim=128))
            ctx = build_encoding_context(ds, cfg, 7)
            batches[mode] = encode_subset(ds, [1], ctx, cfg, Rng(8))  # COUNT_MAX windows
            if mode == "binary":
                encode_subset(ds, [0], ctx, cfg, Rng(8))
            else:
                with pytest.raises(SaturationError):
                    encode_subset(ds, [0], ctx, cfg, Rng(8))
        assert np.array_equal(majority(batches["multibit"].sums), batches["binary"].bits)

    @pytest.mark.parametrize("scheme, dim", [("record", 128), ("record", 2048), ("ngram", 128), ("ngram", 2048)])
    def test_blocks_stay_within_the_cell_budget(self, scheme, dim, monkeypatch):
        """Each encoder call gets at most ENCODE_BLOCK_CELLS // dim rows of one
        sequence length, and the calls cover the indices in order."""
        if scheme == "record":
            ds = make_record_blobs(SyntheticSpec(samples=1100, classes=3, features=4), Rng(4))
        else:
            spec = SyntheticSpec(kind="languages", samples=1100, text_length=12)
            ds = make_language_corpus(spec, Rng(4))
            # ragged: a short run, one long run, alternating lengths, a short run
            lengths = [5, 5, 5, *[7] * 1070, *[5, 6] * 12, 4, 4, 4]
            ds.samples = [text[:length] for text, length in zip(ds.samples, lengths)]
        indices = [9, 9, 0, *range(ds.n), 3]
        cfg = ExperimentConfig(dim=dim, encoding=EncodingConfig(scheme=scheme, dim=dim))
        ctx = build_encoding_context(ds, cfg, 7)
        blocks = []

        def spy(encode):
            def wrapped(rows, *args, **kwargs):
                blocks.append(np.asarray(rows))
                return encode(rows, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(experiments, "encode_ngram_packed", spy(experiments.encode_ngram_packed))
        monkeypatch.setattr(experiments, "encode_record", spy(experiments.encode_record))
        encode_subset(ds, indices, ctx, cfg, Rng(8))
        budget = experiments.ENCODE_BLOCK_CELLS // dim
        # a 2-D block is rows of one length
        assert all(block.ndim == 2 and 1 <= len(block) <= budget for block in blocks)
        assert max(len(block) for block in blocks) == budget
        if scheme == "record":
            expected = ctx.features[indices].tolist()
        else:
            expected = [_ranks(ds, ds.samples[i]) for i in indices]
        assert [row.tolist() for block in blocks for row in block] == expected

    @pytest.mark.parametrize("scheme", ["record", "ngram"])
    def test_binary_batch_holds_bits_and_a_few_blocks(self, scheme):
        """A binary encode_subset's tracemalloc peak is its bits matrix plus a
        few blocks: no (n, dim) sums, no whole-batch majority temporaries."""
        if scheme == "record":
            ds = make_record_blobs(SyntheticSpec(samples=800, classes=4, features=9), Rng(4))
        else:
            ds = make_language_corpus(SyntheticSpec(kind="languages", samples=800, text_length=40), Rng(4))
        cfg = ExperimentConfig(dim=2048, encoding=EncodingConfig(scheme=scheme, dim=2048))
        ctx = build_encoding_context(ds, cfg, 7)
        encode_subset(ds, range(8), ctx, cfg, Rng(8))  # first-use imports and caches
        tracemalloc.start()
        try:
            batch = encode_subset(ds, range(ds.n), ctx, cfg, Rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One block of int16 sums is 2 * ENCODE_BLOCK_CELLS bytes; the
        # encoder's working arrays take a few more. The (800, 2048) sums
        # alone would be 3.3 MB.
        block = 2 * experiments.ENCODE_BLOCK_CELLS
        assert peak < batch.bits.nbytes + 6 * block
        assert batch.sums is None


class TestEncoderTables:
    """Each encoder's packed table is built once per run, in build_encoding_context."""

    @pytest.mark.parametrize("verb, scheme, mode, permute_mode", [
        ("classify", "ngram", "binary", "shift"),
        ("classify", "ngram", "multibit", "drop"),
        ("classify", "record", "binary", "shift"),
        ("cluster", "ngram", "binary", "drop"),
        ("cluster", "record", "binary", "shift"),
    ])
    def test_each_run_builds_its_table_once(self, verb, scheme, mode, permute_mode, monkeypatch):
        builds = []

        def spy(build):
            def wrapped(*args):
                builds.append(build.__name__)
                return build(*args)
            return wrapped

        for name in ("ngram_table", "record_table"):
            wrapped = spy(getattr(enc_mod, name))
            monkeypatch.setattr(enc_mod, name, wrapped)
            monkeypatch.setattr(experiments, name, wrapped)
        if scheme == "record":
            ds = make_record_blobs(SyntheticSpec(samples=300, classes=3, features=5), Rng(4))
        else:
            ds = make_language_corpus(SyntheticSpec(kind="languages", samples=300, text_length=15), Rng(4))
        encoding = EncodingConfig(scheme=scheme, permute_mode=permute_mode, dim=128)
        # Blocks of 64 rows: each run encodes several, so a table built per
        # block would show as more than one build.
        monkeypatch.setattr(experiments, "ENCODE_BLOCK_CELLS", 64 * 128)
        cfg = ExperimentConfig(dim=128, mode=mode, retrain_epochs=1, encoding=encoding,
                               cluster=ClusterSpec(k=3, max_epochs=2))
        (run_classify if verb == "classify" else run_cluster)(cfg, ds)
        assert builds == [f"{scheme}_table"]

    def test_context_holds_the_schemes_table_of_the_drawn_memories(self):
        texts = make_language_corpus(SyntheticSpec(kind="languages", samples=20, text_length=9), Rng(4))
        records = make_record_blobs(SyntheticSpec(samples=20, classes=2, features=3), Rng(4))
        for ds, encoding in ((texts, EncodingConfig(scheme="ngram", n=4, permute_mode="drop", drop_width=16,
                                                    dim=256)),
                             (records, EncodingConfig(scheme="record", levels=5, dim=256))):
            cfg = ExperimentConfig(dim=256, encoding=encoding)
            ctx = build_encoding_context(ds, cfg, 7)
            im, lm = _memories(ds, cfg, 7)
            if encoding.scheme == "ngram":
                expected = ngram_table(im, 4, encoding)
                assert ctx.table.shape == (4, len(im), 32)
            else:
                expected = record_table(im, lm)
                assert ctx.table.shape == (3, 5, 32)
            assert ctx.table.dtype == np.uint8 and np.array_equal(ctx.table, expected)


class TestSymbolIndices:
    # two- and three-byte UTF-8 characters, non-BMP ones (four bytes) and a NUL among ASCII
    TEXTS = ["aé𝄞b", "𝄞𝄞z中", "中😀ab", "é\x00a😀"]

    def test_equals_one_dict_lookup_per_character(self):
        chars = sorted({c for text in self.TEXTS for c in text})
        vocab = {c: i for i, c in enumerate(chars)}
        expected = np.array([[vocab[c] for c in text] for text in self.TEXTS])
        table = experiments.code_point_table(np.array([ord(c) for c in chars], dtype=np.uint32))
        # seven symbols index in one byte; the indices come out as intp
        assert table.dtype == np.uint8 and len(table) == ord("😀") + 1
        got = experiments.symbol_indices(self.TEXTS, table)
        assert got.dtype == np.intp and np.array_equal(got, expected)

    def test_table_dtype_fits_the_vocabulary(self):
        for size, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16)):
            points = np.arange(100, 100 + 2 * size, 2, dtype=np.uint32)
            table = experiments.code_point_table(points)
            assert table.dtype == dtype and table[points].tolist() == list(range(size))

    def test_vocabulary_of_a_non_ascii_corpus(self):
        """The vocabulary is the corpus's code points in order: é, 日 and a
        non-BMP emoji among ASCII and NUL."""
        texts = ["日é a😀", "zé日\x00", "😀😀ab", "a日 é"]
        ds = Dataset("text_corpus", texts, ["x", "y"] * 2)
        cfg = ExperimentConfig(dim=128, encoding=EncodingConfig(scheme="ngram", dim=128))
        ctx = build_encoding_context(ds, cfg, 7)
        points = np.array([0, 32, 97, 98, 122, 0xE9, 0x65E5, 0x1F600], dtype=np.uint32)
        expected = experiments.code_point_table(points)
        assert ctx.symbol_table.dtype == expected.dtype and np.array_equal(ctx.symbol_table, expected)
        assert ctx.table.shape == (3, len(points), 16)

    def test_encode_subset_of_a_non_ascii_corpus(self):
        ds = Dataset("text_corpus", self.TEXTS * 3, ["x", "y"] * 6)
        encoding = EncodingConfig(scheme="ngram", dim=256)
        for mode in ("binary", "multibit"):
            cfg = ExperimentConfig(dim=256, mode=mode, encoding=encoding)
            ctx = build_encoding_context(ds, cfg, 7)
            batch = encode_subset(ds, range(12), ctx, cfg, Rng(8))
            im, _ = _memories(ds, cfg, 7)
            bundles = [encode_ngram(_ranks(ds, text), 3, im, encoding)[0] for text in ds.samples]
            _check_batch_mode(batch, mode, np.stack(bundles))
            assert np.array_equal(batch.bits, np.stack([binarize(sums) for sums in bundles]))


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
