import numpy as np
import pytest

from hdcam.cam import AnalogParams, VoltageProfile
from hdcam.datasets import make_hv_blobs, purity
from hdcam.errors import CapacityError, ConfigError
from hdcam.hvcore import (
    AccumulatorHV,
    BipolarHV,
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    hamming,
    random_hv,
)
from hdcam import learner
from hdcam.learner import (
    ClassMemory,
    EncodedSample,
    SimilarityBackend,
    cluster,
    predict,
    retrain,
    train,
)
from hdcam.lta import SensingSpec

IDEAL = SimilarityBackend(kind="ideal_hamming")


def _flip(hv, n, rng):
    bits = hv.bits.copy()
    idx = rng.generator.choice(hv.dim, size=n, replace=False)
    bits[idx] ^= 1
    return BipolarHV(hv.dim, bits)


def _sample(hv, label):
    acc = bundle_add(AccumulatorHV.zeros(hv.dim), hv)
    return EncodedSample(bits=hv, label=label, acc=acc)


def _analog_backend(seed=5):
    return SimilarityBackend(
        kind="analog_cam",
        profile=VoltageProfile.uniform(1.0),
        params=AnalogParams(),
        sensing=SensingSpec(),
        rng=Rng(seed),
    )


def _noisy_task(rng, mode):
    """Class memory trained on noisy prototypes, plus noisier, partly mislabelled
    samples that retraining has to move between classes."""
    gen = rng.generator
    protos = [random_hv(256, rng) for _ in range(3)]
    cm = train([_sample(_flip(protos[i % 3], 60, rng), i % 3) for i in range(9)], mode=mode)
    samples = [_sample(_flip(protos[i % 3], 100, rng), int(gen.integers(3))) for i in range(12)]
    return cm, samples


def _retrain_reference(cm, samples, epochs, backend, online):
    """Accumulators after a one-sample-at-a-time retrain loop. online=False scores
    every sample of an epoch against the memory as it stood at the epoch start."""
    accumulators = dict(cm.accumulators)
    deployed = dict(cm.deployed)
    for _ in range(epochs):
        frozen = ClassMemory(cm.dim, cm.mode, dict(accumulators))
        live = ClassMemory(cm.dim, cm.mode, accumulators)
        frozen.deployed = live.deployed = deployed
        for s in samples:
            query = s.acc if backend.kind == "ideal_dot" else s.bits
            (predicted,), _ = predict([query], live if online else frozen, backend)
            if predicted != s.label:
                accumulators[predicted] = bundle_sub(accumulators[predicted], s.bits)
                accumulators[s.label] = bundle_add(accumulators[s.label], s.bits)
        deployed = {label: binarize(acc) for label, acc in accumulators.items()}
    return accumulators


def _spy_predict(monkeypatch):
    """List that records the query count of every predict call retrain makes."""
    batches = []

    def spy(queries, *args, **kwargs):
        batches.append(len(queries))
        return predict(queries, *args, **kwargs)

    monkeypatch.setattr(learner, "predict", spy)
    return batches


class TestTrain:
    def test_single_sample_class_deploys_its_bits(self, rng):
        hvs = [random_hv(256, rng) for _ in range(3)]
        cm = train([_sample(hv, i) for i, hv in enumerate(hvs)])
        for i, hv in enumerate(hvs):
            assert cm.deployed[i] == hv

    def test_disjoint_classes_near_half_distance(self, rng):
        a = [_sample(random_hv(2048, rng), "a") for _ in range(10)]
        b = [_sample(random_hv(2048, rng), "b") for _ in range(10)]
        cm = train(a + b)
        assert 1024 - 200 <= hamming(cm.deployed["a"], cm.deployed["b"]) <= 1024 + 200

    def test_accumulators_match_brute_force(self, rng):
        samples = [_sample(random_hv(128, rng), i % 3) for i in range(9)]
        cm = train(samples)
        for label in range(3):
            expected = np.zeros(128, dtype=np.int64)
            for s in samples:
                if s.label == label:
                    expected += s.bits.bits
            assert np.array_equal(cm.accumulators[label].counts, expected.astype(np.int16))

    def test_capacity_error(self, rng):
        samples = [_sample(random_hv(128, rng), i) for i in range(129)]
        with pytest.raises(CapacityError):
            train(samples)


class TestPredict:
    def test_exact_match(self, rng):
        hvs = {i: random_hv(512, rng) for i in range(4)}
        cm = train([_sample(hv, i) for i, hv in hvs.items()])
        for i, hv in hvs.items():
            assert predict([hv], cm, IDEAL)[0] == [i]

    def test_near_match_wins(self, rng):
        hvs = {i: random_hv(512, rng) for i in range(4)}
        cm = train([_sample(hv, i) for i, hv in hvs.items()])
        query = _flip(hvs[2], 1, rng)
        assert predict([query], cm, IDEAL)[0] == [2]

    def test_empty_class_memory(self, rng):
        cm = ClassMemory(128, "binary", {})
        with pytest.raises(ValueError):
            predict([random_hv(128, rng)], cm, IDEAL)

    def test_ideal_dot_requires_accumulator(self, rng):
        cm = train([_sample(random_hv(128, rng), 0), _sample(random_hv(128, rng), 1)],
                   mode="multibit")
        with pytest.raises(TypeError):
            predict([random_hv(128, rng)], cm, SimilarityBackend(kind="ideal_dot"))

    def test_ideal_dot_recovers_class(self, rng):
        samples = [_sample(random_hv(512, rng), i) for i in range(3)]
        cm = train(samples, mode="multibit")
        labels, decisions = predict([s.acc for s in samples], cm, SimilarityBackend(kind="ideal_dot"))
        assert labels == [s.label for s in samples]
        assert decisions == [None] * 3

    def test_bind_mask_invariance(self, rng):
        hvs = {i: random_hv(512, rng) for i in range(5)}
        cm = train([_sample(hv, i) for i, hv in hvs.items()])
        mask = random_hv(512, rng)
        masked = ClassMemory.from_deployed(
            {i: bind(hv, mask) for i, hv in cm.deployed.items()}
        )
        queries = [_flip(hv, 37, rng) for hv in hvs.values()]
        assert predict(queries, cm, IDEAL) == predict([bind(q, mask) for q in queries], masked, IDEAL)

    def test_analog_agrees_with_ideal_when_separated(self, rng):
        hvs = {i: random_hv(512, rng) for i in range(6)}
        cm = train([_sample(hv, i) for i, hv in hvs.items()])
        queries = [_flip(hvs[i], 20, rng) for i in range(6)]
        assert predict(queries, cm, _analog_backend())[0] == predict(queries, cm, IDEAL)[0] == list(range(6))

    def test_analog_decision_trace_returned(self, rng):
        hvs = {i: random_hv(256, rng) for i in range(9)}
        cm = train([_sample(hv, i) for i, hv in hvs.items()])
        labels, decisions = predict([hvs[4]], cm, _analog_backend())
        assert labels == [4]
        assert decisions[0] is not None and len(decisions[0].trace) == 2

    @pytest.mark.parametrize("kind", ["ideal_hamming", "ideal_dot", "analog_cam"])
    def test_batch_equals_one_query_at_a_time(self, kind):
        # 40 queries span several QUERY_BLOCKs; the LTA still draws per query, in order.
        cm, samples = _noisy_task(Rng(5), "multibit" if kind == "ideal_dot" else "binary")
        queries = [s.acc if kind == "ideal_dot" else s.bits for s in (samples * 4)[:40]]
        make = (lambda: _analog_backend(seed=3)) if kind == "analog_cam" else (lambda: SimilarityBackend(kind=kind))
        batched = predict(queries, cm, make())
        backend = make()
        single = [predict([q], cm, backend) for q in queries]
        assert batched[0] == [labels[0] for labels, _ in single]
        assert batched[1] == [decisions[0] for _, decisions in single]

    def test_analog_backend_requires_context(self):
        with pytest.raises(ConfigError):
            SimilarityBackend(kind="analog_cam")

    def test_unknown_backend_kind(self):
        with pytest.raises(ConfigError):
            SimilarityBackend(kind="quantum")


class TestRetrain:
    def test_no_errors_no_change(self, rng):
        samples = [_sample(random_hv(512, rng), i) for i in range(4)]
        cm = train(samples)
        out = retrain(cm, samples, 3, IDEAL)
        for label in cm.labels:
            assert out.accumulators[label] == cm.accumulators[label]
            assert out.deployed[label] == cm.deployed[label]

    def test_zero_epochs_identity(self, rng):
        samples = [_sample(random_hv(256, rng), i % 2) for i in range(6)]
        cm = train(samples)
        out = retrain(cm, samples, 0, IDEAL)
        assert out.accumulators == cm.accumulators

    def test_single_misprediction_touches_two_classes(self, rng):
        x, y, w = (random_hv(512, rng) for _ in range(3))
        planted = _flip(x, 20, rng)
        samples = [_sample(x, "a"), _sample(x, "a"), _sample(y, "b"),
                   _sample(w, "c"), _sample(planted, "b")]
        cm = train(samples)
        assert predict([planted], cm, IDEAL)[0] == ["a"]
        out = retrain(cm, [_sample(planted, "b")], 1, IDEAL)
        changed = [l for l in cm.labels if out.accumulators[l] != cm.accumulators[l]]
        assert sorted(changed) == ["a", "b"]

    def test_planted_error_corrected(self, rng):
        x, y = random_hv(512, rng), random_hv(512, rng)
        z = _flip(x, 20, rng)
        samples = [_sample(x, "a"), _sample(x, "a"), _sample(y, "b"), _sample(z, "b")]
        cm = train(samples)
        assert predict([z], cm, IDEAL)[0] == ["a"]
        out = retrain(cm, samples, 1, IDEAL)
        assert predict([z], out, IDEAL)[0] == ["b"]

    @pytest.mark.parametrize("kind", ["ideal_hamming", "analog_cam"])
    def test_binary_batched_per_epoch_equals_per_sample_loop(self, kind, monkeypatch):
        rng = Rng(11)
        cm, samples = _noisy_task(rng, "binary")
        backend = IDEAL if kind == "ideal_hamming" else _analog_backend()
        batches = _spy_predict(monkeypatch)
        out = retrain(cm, samples, 3, backend)
        assert batches == [len(samples)] * 3  # one predict per epoch
        backend = IDEAL if kind == "ideal_hamming" else _analog_backend()
        expected = _retrain_reference(cm, samples, 3, backend, online=False)
        assert out.accumulators == expected
        assert out.accumulators != cm.accumulators

    def test_ideal_dot_stays_online(self, monkeypatch):
        cm, samples = _noisy_task(Rng(2), "multibit")
        dot = SimilarityBackend(kind="ideal_dot")
        batches = _spy_predict(monkeypatch)
        out = retrain(cm, samples, 1, dot)
        assert batches == [1] * len(samples)
        assert out.accumulators == _retrain_reference(cm, samples, 1, dot, online=True)
        assert out.accumulators != _retrain_reference(cm, samples, 1, dot, online=False)

    def test_analog_epochs_search_refreshed_rows(self):
        cm, samples = _noisy_task(Rng(11), "binary")
        backend = _analog_backend()
        first = retrain(cm, samples, 1, backend)
        assert first.deployed != cm.deployed
        stepwise = retrain(first, samples, 1, backend)
        assert retrain(cm, samples, 2, _analog_backend()).accumulators == stepwise.accumulators

    def test_negative_epochs(self, rng):
        samples = [_sample(random_hv(128, rng), i % 2) for i in range(4)]
        cm = train(samples)
        with pytest.raises(ValueError):
            retrain(cm, samples, -1, IDEAL)


class TestCluster:
    def test_points_equal_distinct_hvs(self):
        rng = Rng(1)
        points = [random_hv(512, Rng(100 + i)) for i in range(3)] * 5
        state = cluster(points, 3, 128, 20, rng, IDEAL)
        assert state.epoch <= 2
        center_set = {tuple(c.bits) for c in state.centers}
        assert center_set == {tuple(p.bits) for p in points[:3]}

    def test_threshold_dim_one_epoch(self, rng):
        points = [random_hv(512, rng) for _ in range(8)]
        state = cluster(points, 2, 512, 20, rng, IDEAL)
        assert state.epoch == 1

    def test_two_blobs_recovered(self):
        ds = make_hv_blobs(2, 20, 2048, Rng(77))
        state = cluster(list(ds.samples), 2, 8, 20, Rng(3), IDEAL)
        assert purity(state.assignments, ds.labels) >= 0.95

    def test_objective_non_increasing(self):
        ds = make_hv_blobs(3, 15, 1024, Rng(17))
        state = cluster(list(ds.samples), 3, 8, 20, Rng(2), IDEAL)
        hist = state.objective_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_analog_backend_two_blobs(self):
        ds = make_hv_blobs(2, 12, 512, Rng(5))
        state = cluster(list(ds.samples), 2, 8, 20, Rng(9), _analog_backend())
        assert purity(state.assignments, ds.labels) >= 0.95

    def test_k_too_small(self, rng):
        points = [random_hv(128, rng) for _ in range(4)]
        with pytest.raises(ValueError):
            cluster(points, 1, 8, 20, rng, IDEAL)

    def test_k_exceeds_capacity(self, rng):
        points = [random_hv(128, rng) for _ in range(130)]
        with pytest.raises(CapacityError):
            cluster(points, 129, 8, 20, rng, IDEAL)

    def test_fewer_points_than_k(self, rng):
        points = [random_hv(128, rng) for _ in range(2)]
        with pytest.raises(ValueError):
            cluster(points, 3, 8, 20, rng, IDEAL)
