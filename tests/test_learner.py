import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcam.cam import AnalogParams, VoltageProfile
from hdcam.config import ExperimentConfig
from hdcam.cost import CostLedger, charge_to
from hdcam.datasets import make_hv_blobs, purity
from hdcam.errors import CapacityError, ConfigError, SaturationError
from hdcam.hvcore import (
    COUNT_MAX,
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    hamming_matrix,
    majority,
    pack_rows,
    random_bits,
    unpack_rows,
)
from hdcam import learner
from hdcam.learner import (
    AnalogCam,
    ClassMemory,
    ClusterSpec,
    Encoded,
    cluster,
    predict,
    retrain,
    train,
)
from hdcam.lta import SensingSpec


def _rand(dim, rng):
    """One random bit row."""
    return random_bits(1, dim, rng)[0]


def _dist(a, b):
    return int(hamming_matrix(a, b)[0, 0])


def _flip(hv, n, rng):
    bits = hv.copy()
    idx = rng.choice(len(hv), size=n, replace=False)
    bits[idx] ^= 1
    return bits


def _bipolar(bits):
    """Bit rows as int16 bipolar rows, 1 - 2 * bits: the sums of one-row bundles."""
    return 1 - 2 * np.asarray(bits, dtype=np.int16)


def _batch(hvs, labels=None, multibit=False):
    """Encoded batch of one-vector bundles: packed rows of the bits and, in a
    multibit batch, which is dot-scored, sums equal to their bipolar rows (a
    binary batch keeps none, so its rows are searched)."""
    bits = np.stack(hvs)
    labels = [None] * len(hvs) if labels is None else list(labels)
    return Encoded(pack_rows(bits), _bipolar(bits) if multibit else None, labels)


def _repeat(batch, n):
    """The first n samples of the batch repeated end to end."""
    idx = np.arange(n) % len(batch)
    sums = None if batch.sums is None else batch.sums[idx]
    return Encoded(batch.bits[idx], sums, [batch.labels[i] for i in idx])


def _row(cm, label):
    """The deployed bits of a class."""
    return unpack_rows(cm.deployed[cm.labels.index(label)])


def _bundles(cm):
    """The class bundles of a class memory, as a comparable list of sum rows."""
    return cm.sums.tolist()


def _analog_backend(seed=5):
    return AnalogCam(VoltageProfile.uniform(1.0), AnalogParams(), SensingSpec(), Rng(seed))


def _noisy_task(rng, multibit=False):
    """Class memory trained on noisy prototypes, plus a batch of noisier, partly
    mislabelled samples that retraining has to move between classes."""
    protos = [_rand(256, rng) for _ in range(3)]
    cm = train(_batch([_flip(protos[i % 3], 60, rng) for i in range(9)], [i % 3 for i in range(9)]))
    hvs = [_flip(protos[i % 3], 100, rng) for i in range(12)]
    return cm, _batch(hvs, [int(rng.integers(3)) for _ in hvs], multibit)


def _retrain_reference(cm, batch, epochs, analog, online, ledger=None):
    """Class bundles, as _bundles gives them, after a one-sample-at-a-time retrain
    loop that charges the ledger one search per sample and two additions per
    update. online=False scores every sample of an epoch against the memory as
    it stood at the epoch start."""
    row = {label: k for k, label in enumerate(cm.labels)}
    sums = cm.sums.copy()
    deployed = cm.deployed
    for _ in range(epochs):
        frozen = ClassMemory(cm.labels, sums.copy(), deployed)
        live = ClassMemory(cm.labels, sums, deployed)
        for i, label in enumerate(batch.labels):
            (predicted,), _ = predict(batch[i : i + 1], live if online else frozen, analog, ledger)
            if predicted != label:
                charge_to(ledger, "addition", 2)
                old, new, bits = row[predicted], row[label], unpack_rows(batch.bits[i])
                sums[old] = bundle_sub(sums[old], bits)
                sums[new] = bundle_add(sums[new], bits)
        deployed = np.stack([binarize(row_sums) for row_sums in sums])
    return sums.tolist()


def _spy_predict(monkeypatch):
    """List that records the query count of every predict call retrain makes."""
    batches = []

    def spy(batch, *args, **kwargs):
        batches.append(len(batch))
        return predict(batch, *args, **kwargs)

    monkeypatch.setattr(learner, "predict", spy)
    return batches


class TestTrain:
    def test_single_sample_class_deploys_its_bits(self, rng):
        hvs = [_rand(256, rng) for _ in range(3)]
        cm = train(_batch(hvs, range(3)))
        for i, hv in enumerate(hvs):
            assert np.array_equal(_row(cm, i), hv)

    def test_disjoint_classes_near_half_distance(self, rng):
        hvs = [_rand(2048, rng) for _ in range(20)]
        cm = train(_batch(hvs, ["a"] * 10 + ["b"] * 10))
        assert 1024 - 200 <= hamming_matrix(_row(cm, "a"), _row(cm, "b"))[0, 0] <= 1024 + 200

    def test_accumulators_match_brute_force(self, rng):
        batch = _batch([_rand(128, rng) for _ in range(9)], [i % 3 for i in range(9)])
        cm = train(batch)
        for label in range(3):
            expected = np.zeros(128, dtype=np.int64)
            for bits, sample_label in zip(unpack_rows(batch.bits), batch.labels):
                if sample_label == label:
                    expected += _bipolar(bits)
            k = cm.labels.index(label)
            assert cm.sums.dtype == np.int16
            assert np.array_equal(cm.sums[k], expected)
            assert unpack_rows(binarize(cm.sums[k])).tolist() == _row(cm, label).tolist()

    def test_capacity_error(self, rng):
        with pytest.raises(CapacityError):
            train(_batch([_rand(128, rng) for _ in range(129)], range(129)))

    def test_class_count_saturation(self, rng):
        # A class row saturates where |sum| would pass COUNT_MAX: COUNT_MAX + 1
        # copies of one row do. One more copy of its complement brings every
        # sum back inside, though half the counts of 1 bits are COUNT_MAX + 1.
        hv = _rand(128, rng)
        rows = np.repeat(pack_rows(hv[None]), COUNT_MAX + 1, axis=0)
        with pytest.raises(SaturationError):
            train(Encoded(rows, None, ["a"] * len(rows)))
        rows = np.concatenate([rows, pack_rows(hv[None] ^ 1)])
        assert np.array_equal(train(Encoded(rows, None, ["a"] * len(rows))).sums[0], COUNT_MAX * _bipolar(hv))


class TestPredict:
    def test_exact_match(self, rng):
        hvs = [_rand(512, rng) for _ in range(4)]
        cm = train(_batch(hvs, range(4)))
        for i, hv in enumerate(hvs):
            assert predict(_batch([hv]), cm)[0] == [i]

    def test_near_match_wins(self, rng):
        hvs = [_rand(512, rng) for _ in range(4)]
        cm = train(_batch(hvs, range(4)))
        assert predict(_batch([_flip(hvs[2], 1, rng)]), cm)[0] == [2]

    def test_empty_class_memory(self, rng):
        cm = ClassMemory([], np.zeros((0, 128), dtype=np.int16), np.zeros((0, 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            predict(_batch([_rand(128, rng)]), cm)

    @pytest.mark.parametrize("kind", ["dot", "hamming", "analog"])
    def test_empty_batch_predicts_nothing(self, kind, rng):
        hvs = [_rand(256, rng) for _ in range(3)]
        cm = train(_batch(hvs, "abc"))
        empty = _batch(hvs, "abc", multibit=kind == "dot")[:0]
        ledger = CostLedger(256)
        labels, flags = predict(empty, cm, _analog_backend() if kind == "analog" else None, ledger)
        assert labels == [] and flags.dtype == np.int64 and flags.shape == (0,)
        assert ledger.counts.get("search", 0) == 0

    @pytest.mark.parametrize("multibit", [False, True])
    def test_empty_blocks_score_as_zero_queries(self, multibit, rng):
        cm = train(_batch([_rand(128, rng) for _ in range(5)], range(5)))
        rows = cm.sums.astype(np.float64) if multibit else cm.deployed
        empty = _batch([_rand(128, rng)], multibit=multibit)[:0]
        if multibit:
            scores = learner._score_blocks(empty.sums, lambda part: part @ rows.T)
        else:
            scores = learner._score_blocks(empty.bits, lambda part: hamming_matrix(part, rows))
        assert scores.shape == (0, 5)

    def test_ideal_dot_requires_accumulator(self, rng):
        # A batch that keeps sums is dot-scored on them and its bits are
        # ignored; a bits-only batch is searched by Hamming distance.
        a, b = _rand(512, rng), _rand(512, rng)
        cm = train(_batch([a, b], "ab"))
        query = _batch([a], multibit=True)
        query.sums = _bipolar(b)[None]
        assert predict(query, cm)[0] == ["b"]
        assert predict(replace(query, sums=None), cm)[0] == ["a"]

    def test_bits_only_batch(self):
        # Binary-mode batches keep no sums, and a slice keeps none either.
        # Their packed rows are searched: the Hamming argmin over the deployed
        # rows, where the same samples with sums take the dot argmax.
        cm, batch = _noisy_task(Rng(11), multibit=True)
        bits_only = replace(batch, sums=None)
        part = bits_only[2:5]
        assert part.sums is None and np.array_equal(part.bits, batch.bits[2:5])
        assert part.labels == batch.labels[2:5]
        nearest = hamming_matrix(batch.bits, cm.deployed).argmin(axis=1)
        assert predict(bits_only, cm)[0] == [cm.labels[k] for k in nearest]
        best = (batch.sums.astype(np.int64) @ cm.sums.T.astype(np.int64)).argmax(axis=1)
        assert predict(batch, cm)[0] == [cm.labels[k] for k in best]

    def test_analog_cam_rejects_a_counts_batch(self, rng):
        # The analog CAM searches binary rows: a batch that keeps sums
        # (multibit) fails in predict and retrain before anything is charged.
        batch = _batch([_rand(256, rng) for _ in range(3)], range(3), multibit=True)
        cm = train(batch)
        ledger = CostLedger(256)
        with pytest.raises(ConfigError, match="sums"):
            predict(batch, cm, _analog_backend(), ledger)
        with pytest.raises(ConfigError, match="sums"):
            retrain(cm, batch[1:], 1, _analog_backend(), ledger)
        assert ledger.counts == {}

    def test_ideal_dot_recovers_class(self, rng):
        batch = _batch([_rand(512, rng) for _ in range(3)], range(3), multibit=True)
        cm = train(batch)
        labels, flags = predict(batch, cm)
        assert labels == batch.labels
        assert flags.tolist() == [0] * 3

    def test_bind_mask_invariance(self, rng):
        hvs = [_rand(512, rng) for _ in range(5)]
        cm = train(_batch(hvs, range(5)))
        mask = _rand(512, rng)
        masked = ClassMemory(cm.labels, cm.sums, cm.deployed ^ pack_rows(mask))
        queries = [_flip(hv, 37, rng) for hv in hvs]
        assert predict(_batch(queries), cm)[0] == predict(
            _batch([bind(q, mask) for q in queries]), masked
        )[0]

    def test_analog_agrees_with_ideal_when_separated(self, rng):
        hvs = [_rand(512, rng) for _ in range(6)]
        cm = train(_batch(hvs, range(6)))
        queries = _batch([_flip(hv, 20, rng) for hv in hvs])
        assert predict(queries, cm, _analog_backend())[0] == predict(queries, cm)[0] == list(range(6))

    def test_analog_decision_trace_returned(self, rng):
        hvs = [_rand(256, rng) for _ in range(9)]
        cm = train(_batch(hvs, range(9)))
        # Nine rows take two comparator batches (tests/test_lta.py checks the
        # trace); the query matches row 4 exactly, so neither is ambiguous.
        labels, flags = predict(_batch([hvs[4]]), cm, _analog_backend())
        assert labels == [4]
        assert flags.dtype.kind == "i" and flags.tolist() == [0]

    @pytest.mark.parametrize("kind", ["ideal_hamming", "ideal_dot", "analog_cam"])
    def test_batch_equals_one_query_at_a_time(self, kind):
        # 40 queries span several QUERY_BLOCKs; the LTA still draws per query, in order.
        cm, batch = _noisy_task(Rng(5), multibit=kind == "ideal_dot")
        queries = _repeat(batch, 40)
        make = (lambda: _analog_backend(seed=3)) if kind == "analog_cam" else (lambda: None)
        batched = predict(queries, cm, make())
        analog = make()
        single = [predict(queries[i : i + 1], cm, analog) for i in range(len(queries))]
        assert batched[0] == [labels[0] for labels, _ in single]
        assert batched[1].tolist() == [flags[0] for _, flags in single]

    def test_floor_must_be_small(self):
        # The one sensing floor lives in SensingSpec; the analog backend, where it
        # meets the analog params, keeps it far below a single mismatch's current.
        with pytest.raises(ConfigError, match="sensing floor 1e-07 A"):
            replace(_analog_backend(), sensing=SensingSpec(floor=1e-7))
        with pytest.raises(ConfigError):
            replace(_analog_backend(), params=AnalogParams(gamma=0.3, v_th=0.29))
        # A config that no analog backend reads the floor from is not checked.
        ExperimentConfig(analog=AnalogParams(g_cell=1e-9))

    def test_analog_backend_requires_context(self):
        # The profile, params, sensing spec and LTA rng are all required.
        with pytest.raises(TypeError):
            AnalogCam(VoltageProfile.uniform(1.0), AnalogParams(), SensingSpec())


class TestRetrain:
    def test_no_errors_no_change(self, rng):
        batch = _batch([_rand(512, rng) for _ in range(4)], range(4))
        cm = train(batch)
        out = retrain(cm, batch, 3)
        assert _bundles(out) == _bundles(cm)
        assert np.array_equal(out.deployed, cm.deployed)

    def test_zero_epochs_identity(self, rng):
        batch = _batch([_rand(256, rng) for _ in range(6)], [i % 2 for i in range(6)])
        cm = train(batch)
        out = retrain(cm, batch, 0)
        assert _bundles(out) == _bundles(cm)
        assert out.sums is not cm.sums

    def test_single_misprediction_touches_two_classes(self, rng):
        x, y, w = (_rand(512, rng) for _ in range(3))
        planted = _flip(x, 20, rng)
        cm = train(_batch([x, x, y, w, planted], "aabcb"))
        assert predict(_batch([planted]), cm)[0] == ["a"]
        before = _bundles(cm)
        out = retrain(cm, _batch([planted], "b"), 1)
        assert _bundles(cm) == before  # retrain leaves its input as it was
        changed = [l for k, l in enumerate(cm.labels) if (out.sums[k] != cm.sums[k]).any()]
        assert sorted(changed) == ["a", "b"]

    def test_planted_error_corrected(self, rng):
        x, y = _rand(512, rng), _rand(512, rng)
        z = _flip(x, 20, rng)
        batch = _batch([x, x, y, z], "aabb")
        cm = train(batch)
        assert predict(_batch([z]), cm)[0] == ["a"]
        out = retrain(cm, batch, 1)
        assert predict(_batch([z]), out)[0] == ["b"]

    @pytest.mark.parametrize("kind", ["ideal_hamming", "analog_cam"])
    def test_binary_batched_per_epoch_equals_per_sample_loop(self, kind, monkeypatch):
        cm, batch = _noisy_task(Rng(11))
        make = (lambda: None) if kind == "ideal_hamming" else _analog_backend
        batches = _spy_predict(monkeypatch)
        out = retrain(cm, batch, 3, make())
        assert batches == [len(batch)] * 3  # one predict per epoch
        expected = _retrain_reference(cm, batch, 3, make(), online=False)
        assert _bundles(out) == expected
        assert _bundles(out) != _bundles(cm)

    def test_ideal_dot_stays_online(self):
        cm, batch = _noisy_task(Rng(2), multibit=True)
        out = retrain(cm, batch, 1)
        assert _bundles(out) == _retrain_reference(cm, batch, 1, None, online=True)
        assert _bundles(out) != _retrain_reference(cm, batch, 1, None, online=False)

    @pytest.mark.parametrize("seed", [2, 7, 13])
    def test_ideal_dot_planted_mistakes_match_online_reference(self, seed):
        # 40 samples span three QUERY_BLOCKs, and the noisy task's random labels
        # plant mistakes in every epoch, so later samples of a block are scored
        # after updates made earlier in it.
        cm, batch = _noisy_task(Rng(seed), multibit=True)
        batch = _repeat(batch, 40)
        ledger, reference_ledger = CostLedger(256), CostLedger(256)
        out = retrain(cm, batch, 3, ledger=ledger)
        sums = _retrain_reference(cm, batch, 3, None, online=True, ledger=reference_ledger)
        assert _bundles(out) == sums
        assert np.array_equal(out.deployed, majority(np.array(sums)))
        assert ledger.counts == reference_ledger.counts
        assert ledger.counts["search"] == 3 * len(batch) and ledger.counts["addition"] > 0

    def test_ideal_dot_repeated_mislabel_moves_until_it_flips(self, rng):
        # One sample near class a, labelled b, twelve times in one QUERY_BLOCK:
        # each update moves it from a to b and shifts both its scores, until
        # the later copies predict b. The update count is only right if both
        # the a and the b scores of the later copies follow every update.
        a, b = _rand(256, rng), _rand(256, rng)
        cm = train(_batch([_flip(a, 40, rng) for _ in range(6)] + [_flip(b, 40, rng) for _ in range(6)],
                          "aaaaaabbbbbb"))
        batch = _batch([_flip(a, 60, rng)] * 12, "b" * 12, multibit=True)
        ledger, reference_ledger = CostLedger(256), CostLedger(256)
        out = retrain(cm, batch, 1, ledger=ledger)
        assert _bundles(out) == _retrain_reference(cm, batch, 1, None, online=True, ledger=reference_ledger)
        assert ledger.counts == reference_ledger.counts
        assert 0 < ledger.counts.get("addition", 0) < 2 * len(batch)

    def test_analog_epochs_search_refreshed_rows(self):
        cm, batch = _noisy_task(Rng(11))
        backend = _analog_backend()
        first = retrain(cm, batch, 1, backend)
        assert not np.array_equal(first.deployed, cm.deployed)
        stepwise = retrain(first, batch, 1, backend)
        assert _bundles(retrain(cm, batch, 2, _analog_backend())) == _bundles(stepwise)

    def test_imbalanced_classes_drop_a_size_below_zero(self, rng):
        # Class a holds one row x; class b holds three 8-bit flips of x and five
        # copies of y, so b deploys y and the flips predict a. The epoch moves
        # all three out of a, whose sums become those of a bundle of size -2:
        # x's bipolar row less the flips'.
        x, y = _rand(256, rng), _rand(256, rng)
        flips = [_flip(x, 8, rng) for _ in range(3)]
        batch = _batch([x, *flips, *[y] * 5], "abbbbbbbb")
        cm = train(batch)
        assert predict(batch, cm)[0] == list("aaaabbbbb")
        out = retrain(cm, batch, 1)
        assert out.sums[0].tolist() == (_bipolar(x) - _bipolar(flips).sum(axis=0)).tolist()
        assert _bundles(out) == _retrain_reference(cm, batch, 1, None, online=False)
        assert np.array_equal(out.deployed, majority(out.sums))

    @pytest.mark.parametrize("multibit", [False, True])
    def test_empty_batch_changes_nothing(self, multibit, rng):
        batch = _batch([_rand(256, rng) for _ in range(4)], "abab", multibit)
        cm = train(batch)
        out = retrain(cm, batch[:0], 2)
        assert _bundles(out) == _bundles(cm) and np.array_equal(out.deployed, cm.deployed)

    @pytest.mark.parametrize("multibit", [False, True])
    def test_each_update_calls_bundle_sub_once(self, multibit, monkeypatch):
        # bench/tracer.py reads learner.retrain.updates as the bundle_sub calls
        # made under retrain: one per update, half the additions it charges,
        # on the dot-scored path and the packed-row path alike.
        cm, batch = _noisy_task(Rng(11), multibit=multibit)
        calls = []

        def spy(*args):
            calls.append(args)
            return bundle_sub(*args)

        monkeypatch.setattr(learner, "bundle_sub", spy)
        ledger = CostLedger(256)
        retrain(cm, batch, 3, ledger=ledger)
        assert calls and 2 * len(calls) == ledger.counts["addition"]

    def test_negative_epochs(self, rng):
        batch = _batch([_rand(128, rng) for _ in range(4)], [i % 2 for i in range(4)])
        cm = train(batch)
        with pytest.raises(ValueError):
            retrain(cm, batch, -1)


def _cluster_reference(points, K, threshold, max_epochs, rng, analog=None):
    """The per-centre clustering loop over lists of bit rows: one random row
    drawn per centre, one bundle_add per member, pairwise duplicate checks
    against the earlier surviving centres, and farthest-point re-seeding in
    index order. Takes and returns packed rows: (centres, assignments, epoch,
    objective history)."""
    hvs = list(unpack_rows(points))
    dim = len(hvs[0])
    centers = [_rand(dim, rng) for _ in range(K)]
    history = []
    for epoch in range(1, max_epochs + 1):
        assignments, _, _ = learner._search(points, pack_rows(np.stack(centers)), analog)
        history.append(sum(_dist(hvs[i], centers[k]) for i, k in enumerate(assignments)))
        updated, degenerate = [], []
        for k in range(K):
            members = np.flatnonzero(assignments == k)
            if len(members) == 0:
                updated.append(None)
                degenerate.append(k)
                continue
            sums = np.zeros(dim, dtype=np.int16)
            for i in members:
                sums = bundle_add(sums, hvs[i])
            new_center = unpack_rows(binarize(sums))
            if any(c is not None and _dist(c, new_center) < dim // 4 for c in updated):
                new_center = None
                degenerate.append(k)
            updated.append(new_center)
        for k in degenerate:
            kept = [c for c in updated if c is not None]
            far = max(range(len(hvs)), key=lambda i: min(_dist(hvs[i], c) for c in kept))
            updated[k] = hvs[far]
        delta = max(_dist(old, new) for old, new in zip(centers, updated))
        centers = updated
        if delta < threshold:
            break
    return pack_rows(np.stack(centers)), assignments, epoch, history


class TestCluster:
    def test_points_equal_distinct_hvs(self):
        rng = Rng(1)
        points = pack_rows(np.stack([_rand(512, Rng(100 + i)) for i in range(3)] * 5))
        state = cluster(points, ClusterSpec(3, 128, 20), rng)
        assert state.epoch <= 2
        assert {tuple(c) for c in state.centers} == {tuple(p) for p in points[:3]}

    def test_threshold_dim_one_epoch(self, rng):
        points = pack_rows(np.stack([_rand(512, rng) for _ in range(8)]))
        state = cluster(points, ClusterSpec(2, 512, 20), rng)
        assert state.epoch == 1

    def test_two_blobs_recovered(self):
        ds = make_hv_blobs(2, 20, 2048, Rng(77))
        state = cluster(ds.samples, ClusterSpec(2, 8, 20), Rng(3))
        assert purity(state.assignments, ds.labels) >= 0.95

    def test_objective_non_increasing(self):
        ds = make_hv_blobs(3, 15, 1024, Rng(17))
        state = cluster(ds.samples, ClusterSpec(3, 8, 20), Rng(2))
        hist = state.objective_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_analog_backend_two_blobs(self):
        ds = make_hv_blobs(2, 12, 512, Rng(5))
        state = cluster(ds.samples, ClusterSpec(2, 8, 20), Rng(9), _analog_backend())
        assert purity(state.assignments, ds.labels) >= 0.95

    @pytest.mark.parametrize("K, blobs, kind, seed", [
        (8, 2, "ideal_hamming", 1),  # empty and duplicate centres every epoch
        (8, 2, "analog_cam", 2),
        (5, 3, "ideal_hamming", 3),
        (3, 3, "ideal_hamming", 4),
        (2, 4, "analog_cam", 5),
    ])
    def test_matches_per_centre_reference(self, K, blobs, kind, seed):
        ds = make_hv_blobs(blobs, 12, 256, Rng(40 + seed), 1 / 8)
        make = (lambda: _analog_backend(seed)) if kind == "analog_cam" else (lambda: None)
        state = cluster(ds.samples, ClusterSpec(K, 0, 6), Rng(seed), make())
        centers, assignments, epoch, history = _cluster_reference(
            ds.samples, K, 0, 6, Rng(seed), make()
        )
        assert np.array_equal(state.centers, centers)
        assert np.array_equal(state.assignments, assignments)
        assert (state.epoch, state.objective_history) == (epoch, history)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), K=st.integers(2, 6), n=st.integers(6, 20),
           threshold=st.integers(0, 40))
    def test_random_points_match_reference(self, seed, K, n, threshold):
        points = pack_rows(np.random.default_rng(seed).integers(0, 2, size=(n, 128), dtype=np.uint8))
        state = cluster(points, ClusterSpec(K, threshold, 5), Rng(seed))
        centers, assignments, epoch, history = _cluster_reference(points, K, threshold, 5, Rng(seed))
        assert np.array_equal(state.centers, centers)
        assert np.array_equal(state.assignments, assignments)
        assert (state.epoch, state.objective_history) == (epoch, history)

    def test_analog_scores_a_block_of_points_at_a_time(self):
        """cluster scores its points QUERY_BLOCK at a time, as predict does. One
        analog scoring step over all 2000 points would hold (2000, 32, 128)
        column temporaries, 23 MB, whatever the width."""
        points = pack_rows(np.random.default_rng(6).integers(0, 2, (2000, 128), dtype=np.uint8))
        backend = _analog_backend()
        cluster(points[:64], ClusterSpec(32, 0, 1), Rng(1), backend)  # first-use imports and caches
        tracemalloc.start()
        try:
            cluster(points, ClusterSpec(32, 0, 1), Rng(1), backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_k_too_small(self, rng):
        points = pack_rows(np.stack([_rand(128, rng) for _ in range(4)]))
        with pytest.raises(ValueError):
            cluster(points, ClusterSpec(1, 8, 20), rng)

    def test_k_exceeds_capacity(self, rng):
        points = pack_rows(np.stack([_rand(128, rng) for _ in range(130)]))
        with pytest.raises(CapacityError):
            cluster(points, ClusterSpec(129, 8, 20), rng)

    def test_centre_count_saturation(self, rng):
        points = np.repeat(pack_rows(_rand(128, rng)[None]), COUNT_MAX + 1, axis=0)
        with pytest.raises(SaturationError):
            cluster(points, ClusterSpec(2, 8, 1), rng)

    def test_fewer_points_than_k(self, rng):
        points = pack_rows(np.stack([_rand(128, rng) for _ in range(2)]))
        with pytest.raises(ValueError):
            cluster(points, ClusterSpec(3, 8, 20), rng)
