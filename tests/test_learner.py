from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcam.cam import AnalogParams, VoltageProfile
from hdcam.config import ExperimentConfig
from hdcam.datasets import make_hv_blobs, purity
from hdcam.errors import CapacityError, ConfigError
from hdcam.hvcore import Rng, binarize, bind, bundle_add, bundle_sub, hamming_matrix, random_bits
from hdcam import learner
from hdcam.learner import (
    ClassMemory,
    ClusterSpec,
    Encoded,
    SimilarityBackend,
    cluster,
    predict,
    retrain,
    train,
)
from hdcam.lta import SensingSpec

IDEAL = SimilarityBackend(kind="ideal_hamming")


def _rand(dim, rng):
    """One random bit row."""
    return random_bits(1, dim, rng)[0]


def _dist(a, b):
    return int(hamming_matrix(a, b)[0, 0])


def _flip(hv, n, rng):
    bits = hv.copy()
    idx = rng.generator.choice(len(hv), size=n, replace=False)
    bits[idx] ^= 1
    return bits


def _batch(hvs, labels=None):
    """Encoded batch of one-vector bundles: counts equal bits, sizes 1."""
    bits = np.stack(hvs)
    labels = [None] * len(hvs) if labels is None else list(labels)
    return Encoded(bits, bits.astype(np.int16), np.ones(len(hvs), dtype=np.int64), labels)


def _repeat(batch, n):
    """The first n samples of the batch repeated end to end."""
    idx = np.arange(n) % len(batch)
    return Encoded(batch.bits[idx], batch.counts[idx], batch.sizes[idx],
                   [batch.labels[i] for i in idx])


def _row(cm, label):
    return cm.deployed[cm.labels.index(label)]


def _bundles(cm):
    """The class bundles of a class memory, as comparable (counts, sizes) lists."""
    return cm.counts.tolist(), cm.sizes.tolist()


def _analog_backend(seed=5):
    return SimilarityBackend(
        kind="analog_cam",
        profile=VoltageProfile.uniform(1.0),
        params=AnalogParams(),
        sensing=SensingSpec(),
        rng=Rng(seed),
    )


def _noisy_task(rng):
    """Class memory trained on noisy prototypes, plus a batch of noisier, partly
    mislabelled samples that retraining has to move between classes."""
    gen = rng.generator
    protos = [_rand(256, rng) for _ in range(3)]
    cm = train(_batch([_flip(protos[i % 3], 60, rng) for i in range(9)], [i % 3 for i in range(9)]))
    hvs = [_flip(protos[i % 3], 100, rng) for i in range(12)]
    return cm, _batch(hvs, [int(gen.integers(3)) for _ in hvs])


def _retrain_reference(cm, batch, epochs, backend, online):
    """Class bundles, as _bundles gives them, after a one-sample-at-a-time retrain
    loop. online=False scores every sample of an epoch against the memory as it
    stood at the epoch start."""
    row = {label: k for k, label in enumerate(cm.labels)}
    counts, sizes = cm.counts.copy(), cm.sizes.copy()
    deployed = cm.deployed
    for _ in range(epochs):
        frozen = ClassMemory(cm.labels, counts.copy(), sizes.copy(), deployed)
        live = ClassMemory(cm.labels, counts, sizes, deployed)
        for i, label in enumerate(batch.labels):
            (predicted,), _ = predict(batch[i : i + 1], live if online else frozen, backend)
            if predicted != label:
                old, new = row[predicted], row[label]
                counts[old] = bundle_sub(counts[old], batch.bits[i], sizes[old])
                counts[new] = bundle_add(counts[new], batch.bits[i])
                sizes[old] -= 1
                sizes[new] += 1
        deployed = np.stack([binarize(c, n) for c, n in zip(counts, sizes)])
    return counts.tolist(), sizes.tolist()


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
            for bits, sample_label in zip(batch.bits, batch.labels):
                if sample_label == label:
                    expected += bits
            k = cm.labels.index(label)
            assert cm.counts.dtype == np.int16
            assert np.array_equal(cm.counts[k], expected.astype(np.int16))
            assert cm.sizes[k] == 3
            assert binarize(cm.counts[k], cm.sizes[k]).tolist() == _row(cm, label).tolist()

    def test_capacity_error(self, rng):
        with pytest.raises(CapacityError):
            train(_batch([_rand(128, rng) for _ in range(129)], range(129)))


class TestPredict:
    def test_exact_match(self, rng):
        hvs = [_rand(512, rng) for _ in range(4)]
        cm = train(_batch(hvs, range(4)))
        for i, hv in enumerate(hvs):
            assert predict(_batch([hv]), cm, IDEAL)[0] == [i]

    def test_near_match_wins(self, rng):
        hvs = [_rand(512, rng) for _ in range(4)]
        cm = train(_batch(hvs, range(4)))
        assert predict(_batch([_flip(hvs[2], 1, rng)]), cm, IDEAL)[0] == [2]

    def test_empty_class_memory(self, rng):
        cm = ClassMemory([], np.zeros((0, 128), dtype=np.int16), np.zeros(0, dtype=np.int64),
                         np.zeros((0, 128), dtype=np.uint8))
        with pytest.raises(ValueError):
            predict(_batch([_rand(128, rng)]), cm, IDEAL)

    def test_ideal_dot_requires_accumulator(self, rng):
        # ideal_dot scores the raw counts and ignores the bits; the Hamming
        # backend does the opposite.
        a, b = _rand(512, rng), _rand(512, rng)
        cm = train(_batch([a, b], "ab"))
        query = _batch([a])
        query.counts = b.astype(np.int16)[None]
        assert predict(query, cm, SimilarityBackend(kind="ideal_dot"))[0] == ["b"]
        assert predict(query, cm, IDEAL)[0] == ["a"]

    def test_ideal_dot_recovers_class(self, rng):
        batch = _batch([_rand(512, rng) for _ in range(3)], range(3))
        cm = train(batch)
        labels, decisions = predict(batch, cm, SimilarityBackend(kind="ideal_dot"))
        assert labels == batch.labels
        assert decisions == [None] * 3

    def test_bind_mask_invariance(self, rng):
        hvs = [_rand(512, rng) for _ in range(5)]
        cm = train(_batch(hvs, range(5)))
        mask = _rand(512, rng)
        masked = ClassMemory(cm.labels, cm.counts, cm.sizes, cm.deployed ^ mask)
        queries = [_flip(hv, 37, rng) for hv in hvs]
        assert predict(_batch(queries), cm, IDEAL) == predict(
            _batch([bind(q, mask) for q in queries]), masked, IDEAL
        )

    def test_analog_agrees_with_ideal_when_separated(self, rng):
        hvs = [_rand(512, rng) for _ in range(6)]
        cm = train(_batch(hvs, range(6)))
        queries = _batch([_flip(hv, 20, rng) for hv in hvs])
        assert predict(queries, cm, _analog_backend())[0] == predict(queries, cm, IDEAL)[0] == list(range(6))

    def test_analog_decision_trace_returned(self, rng):
        hvs = [_rand(256, rng) for _ in range(9)]
        cm = train(_batch(hvs, range(9)))
        labels, decisions = predict(_batch([hvs[4]]), cm, _analog_backend())
        assert labels == [4]
        assert decisions[0] is not None and len(decisions[0].trace) == 2

    @pytest.mark.parametrize("kind", ["ideal_hamming", "ideal_dot", "analog_cam"])
    def test_batch_equals_one_query_at_a_time(self, kind):
        # 40 queries span several QUERY_BLOCKs; the LTA still draws per query, in order.
        cm, batch = _noisy_task(Rng(5))
        queries = _repeat(batch, 40)
        make = (lambda: _analog_backend(seed=3)) if kind == "analog_cam" else (lambda: SimilarityBackend(kind=kind))
        batched = predict(queries, cm, make())
        backend = make()
        single = [predict(queries[i : i + 1], cm, backend) for i in range(len(queries))]
        assert batched[0] == [labels[0] for labels, _ in single]
        assert batched[1] == [decisions[0] for _, decisions in single]

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
        with pytest.raises(ConfigError):
            SimilarityBackend(kind="analog_cam")

    def test_unknown_backend_kind(self):
        with pytest.raises(ConfigError):
            SimilarityBackend(kind="quantum")


class TestRetrain:
    def test_no_errors_no_change(self, rng):
        batch = _batch([_rand(512, rng) for _ in range(4)], range(4))
        cm = train(batch)
        out = retrain(cm, batch, 3, IDEAL)
        assert _bundles(out) == _bundles(cm)
        assert np.array_equal(out.deployed, cm.deployed)

    def test_zero_epochs_identity(self, rng):
        batch = _batch([_rand(256, rng) for _ in range(6)], [i % 2 for i in range(6)])
        cm = train(batch)
        out = retrain(cm, batch, 0, IDEAL)
        assert _bundles(out) == _bundles(cm)
        assert out.counts is not cm.counts and out.sizes is not cm.sizes

    def test_single_misprediction_touches_two_classes(self, rng):
        x, y, w = (_rand(512, rng) for _ in range(3))
        planted = _flip(x, 20, rng)
        cm = train(_batch([x, x, y, w, planted], "aabcb"))
        assert predict(_batch([planted]), cm, IDEAL)[0] == ["a"]
        before = _bundles(cm)
        out = retrain(cm, _batch([planted], "b"), 1, IDEAL)
        assert _bundles(cm) == before  # retrain leaves its input as it was
        changed = [l for k, l in enumerate(cm.labels)
                   if (out.counts[k] != cm.counts[k]).any() or out.sizes[k] != cm.sizes[k]]
        assert sorted(changed) == ["a", "b"]

    def test_planted_error_corrected(self, rng):
        x, y = _rand(512, rng), _rand(512, rng)
        z = _flip(x, 20, rng)
        batch = _batch([x, x, y, z], "aabb")
        cm = train(batch)
        assert predict(_batch([z]), cm, IDEAL)[0] == ["a"]
        out = retrain(cm, batch, 1, IDEAL)
        assert predict(_batch([z]), out, IDEAL)[0] == ["b"]

    @pytest.mark.parametrize("kind", ["ideal_hamming", "analog_cam"])
    def test_binary_batched_per_epoch_equals_per_sample_loop(self, kind, monkeypatch):
        cm, batch = _noisy_task(Rng(11))
        backend = IDEAL if kind == "ideal_hamming" else _analog_backend()
        batches = _spy_predict(monkeypatch)
        out = retrain(cm, batch, 3, backend)
        assert batches == [len(batch)] * 3  # one predict per epoch
        backend = IDEAL if kind == "ideal_hamming" else _analog_backend()
        expected = _retrain_reference(cm, batch, 3, backend, online=False)
        assert _bundles(out) == expected
        assert _bundles(out) != _bundles(cm)

    def test_ideal_dot_stays_online(self, monkeypatch):
        cm, batch = _noisy_task(Rng(2))
        dot = SimilarityBackend(kind="ideal_dot")
        batches = _spy_predict(monkeypatch)
        out = retrain(cm, batch, 1, dot)
        assert batches == [1] * len(batch)
        assert _bundles(out) == _retrain_reference(cm, batch, 1, dot, online=True)
        assert _bundles(out) != _retrain_reference(cm, batch, 1, dot, online=False)

    def test_analog_epochs_search_refreshed_rows(self):
        cm, batch = _noisy_task(Rng(11))
        backend = _analog_backend()
        first = retrain(cm, batch, 1, backend)
        assert not np.array_equal(first.deployed, cm.deployed)
        stepwise = retrain(first, batch, 1, backend)
        assert _bundles(retrain(cm, batch, 2, _analog_backend())) == _bundles(stepwise)

    def test_negative_epochs(self, rng):
        batch = _batch([_rand(128, rng) for _ in range(4)], [i % 2 for i in range(4)])
        cm = train(batch)
        with pytest.raises(ValueError):
            retrain(cm, batch, -1, IDEAL)


def _cluster_reference(points, K, threshold, max_epochs, rng, backend):
    """The per-centre clustering loop over lists of bit rows: one random row
    drawn per centre, one bundle_add per member, pairwise duplicate checks
    against the earlier surviving centres, and farthest-point re-seeding in
    index order. Returns (centres, assignments, epoch, objective history)."""
    dim = points.shape[1]
    hvs = list(points)
    centers = [_rand(dim, rng) for _ in range(K)]
    history = []
    for epoch in range(1, max_epochs + 1):
        scores = learner._score(points, np.stack(centers), backend)
        assignments, _ = learner._decide(scores, backend)
        history.append(sum(_dist(hvs[i], centers[k]) for i, k in enumerate(assignments)))
        updated, degenerate = [], []
        for k in range(K):
            members = np.flatnonzero(assignments == k)
            if len(members) == 0:
                updated.append(None)
                degenerate.append(k)
                continue
            counts = np.zeros(dim, dtype=np.int16)
            for i in members:
                counts = bundle_add(counts, hvs[i])
            new_center = binarize(counts, len(members))
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
    return np.stack(centers), assignments, epoch, history


class TestCluster:
    def test_points_equal_distinct_hvs(self):
        rng = Rng(1)
        points = np.stack([_rand(512, Rng(100 + i)) for i in range(3)] * 5)
        state = cluster(points, ClusterSpec(3, 128, 20), rng, IDEAL)
        assert state.epoch <= 2
        assert {tuple(c) for c in state.centers} == {tuple(p) for p in points[:3]}

    def test_threshold_dim_one_epoch(self, rng):
        points = np.stack([_rand(512, rng) for _ in range(8)])
        state = cluster(points, ClusterSpec(2, 512, 20), rng, IDEAL)
        assert state.epoch == 1

    def test_two_blobs_recovered(self):
        ds = make_hv_blobs(2, 20, 2048, Rng(77))
        state = cluster(ds.samples, ClusterSpec(2, 8, 20), Rng(3), IDEAL)
        assert purity(state.assignments, ds.labels) >= 0.95

    def test_objective_non_increasing(self):
        ds = make_hv_blobs(3, 15, 1024, Rng(17))
        state = cluster(ds.samples, ClusterSpec(3, 8, 20), Rng(2), IDEAL)
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
        backend = (lambda: _analog_backend(seed)) if kind == "analog_cam" else (lambda: IDEAL)
        state = cluster(ds.samples, ClusterSpec(K, 0, 6), Rng(seed), backend())
        centers, assignments, epoch, history = _cluster_reference(
            ds.samples, K, 0, 6, Rng(seed), backend()
        )
        assert np.array_equal(state.centers, centers)
        assert np.array_equal(state.assignments, assignments)
        assert (state.epoch, state.objective_history) == (epoch, history)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), K=st.integers(2, 6), n=st.integers(6, 20),
           threshold=st.integers(0, 40))
    def test_random_points_match_reference(self, seed, K, n, threshold):
        points = np.random.default_rng(seed).integers(0, 2, size=(n, 128), dtype=np.uint8)
        state = cluster(points, ClusterSpec(K, threshold, 5), Rng(seed), IDEAL)
        centers, assignments, epoch, history = _cluster_reference(points, K, threshold, 5, Rng(seed), IDEAL)
        assert np.array_equal(state.centers, centers)
        assert np.array_equal(state.assignments, assignments)
        assert (state.epoch, state.objective_history) == (epoch, history)

    def test_multibit_backend_rejected(self, rng):
        points = np.stack([_rand(128, rng) for _ in range(4)])
        with pytest.raises(ConfigError):
            cluster(points, ClusterSpec(2), rng, SimilarityBackend(kind="ideal_dot"))

    def test_k_too_small(self, rng):
        points = np.stack([_rand(128, rng) for _ in range(4)])
        with pytest.raises(ValueError):
            cluster(points, ClusterSpec(1, 8, 20), rng, IDEAL)

    def test_k_exceeds_capacity(self, rng):
        points = np.stack([_rand(128, rng) for _ in range(130)])
        with pytest.raises(CapacityError):
            cluster(points, ClusterSpec(129, 8, 20), rng, IDEAL)

    def test_fewer_points_than_k(self, rng):
        points = np.stack([_rand(128, rng) for _ in range(2)])
        with pytest.raises(ValueError):
            cluster(points, ClusterSpec(3, 8, 20), rng, IDEAL)
