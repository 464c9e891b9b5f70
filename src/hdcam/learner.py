"""HDC classification (train / retrain / infer) and k-means-style clustering.

Class vectors are bundled from binarized sample encodings and deployed as
binary vectors; multibit similarity instead scores the raw accumulators with
the centered dot product. Prediction runs against one of three backends: an
ideal Hamming argmin, an ideal dot-product argmax, or the modeled CAM fabric
(match-line currents plus serial LTA sensing).
"""

from dataclasses import dataclass, field

import numpy as np

from . import cam
from .errors import CapacityError, ConfigError
from .hvcore import (
    DEFAULT_TIE_BREAK_SEED,
    AccumulatorHV,
    BipolarHV,
    binarize,
    bundle_add,
    bundle_sub,
    dot_bipolar,
    hamming,
    random_hv,
)
from .lta import SensingSpec, argmin_serial

MAX_CLASSES = 128

BACKEND_KINDS = ("ideal_hamming", "ideal_dot", "analog_cam")


@dataclass
class EncodedSample:
    """One encoded input: binarized vector, optional raw accumulator, label."""

    bits: BipolarHV
    label: object
    acc: AccumulatorHV = None


@dataclass
class ClassMemory:
    """Per-class training accumulators and deployed binary vectors."""

    dim: int
    mode: str
    accumulators: dict
    deployed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("binary", "multibit"):
            raise ConfigError(f"unknown class-memory mode: {self.mode!r}")
        if len(self.accumulators) > MAX_CLASSES:
            raise CapacityError(
                f"{len(self.accumulators)} classes exceed the {MAX_CLASSES}-row capacity"
            )

    @property
    def labels(self):
        return list(self.accumulators)

    @classmethod
    def from_deployed(cls, deployed, mode="binary"):
        """Wrap already-binary vectors (e.g. cluster centers) for CAM loading."""
        dim = next(iter(deployed.values())).dim
        accs = {label: AccumulatorHV.zeros(dim) for label in deployed}
        cm = cls(dim, mode, accs)
        cm.deployed = dict(deployed)
        return cm


@dataclass
class SimilarityBackend:
    """Similarity engine selection; analog needs the electrical context."""

    kind: str
    profile: cam.VoltageProfile = None
    params: cam.AnalogParams = None
    sensing: SensingSpec = None
    rng: object = None
    layout: cam.BankLayout = None

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind: {self.kind!r}")
        if self.kind == "analog_cam":
            missing = [
                name
                for name in ("profile", "params", "sensing", "rng")
                if getattr(self, name) is None
            ]
            if missing:
                raise ConfigError(f"analog backend needs {missing}")


def _charge(ledger, op, count=1):
    if ledger is not None and count:
        ledger.charge(op, count)


def train(samples, mode="binary", tie_break_seed=DEFAULT_TIE_BREAK_SEED, ledger=None):
    """Bundle each class's sample vectors and deploy their binarizations."""
    if not samples:
        raise ValueError("cannot train on an empty sample list")
    dim = samples[0].bits.dim
    accumulators = {}
    for s in samples:
        if s.label not in accumulators:
            if len(accumulators) == MAX_CLASSES:
                raise CapacityError(f"more than {MAX_CLASSES} classes")
            accumulators[s.label] = AccumulatorHV.zeros(dim)
        accumulators[s.label] = bundle_add(accumulators[s.label], s.bits)
        _charge(ledger, "addition")
    cm = ClassMemory(dim, mode, accumulators)
    cm.deployed = {label: binarize(acc, tie_break_seed) for label, acc in accumulators.items()}
    return cm


def _query_bits(query):
    if isinstance(query, BipolarHV):
        return query
    raise TypeError("this backend expects a binary (BipolarHV) query")


def predict(query, cm, backend, ledger=None, return_decision=False):
    """Most similar class for one query under the chosen backend.

    With return_decision=True, returns (label, LtaDecision-or-None) so
    analog runs can export their comparison traces.
    """
    if not cm.deployed:
        raise ValueError("class memory has no deployed vectors")
    _charge(ledger, "search")
    labels = cm.labels
    if backend.kind == "ideal_hamming":
        q = _query_bits(query)
        dists = [hamming(q, cm.deployed[label]) for label in labels]
        label = labels[int(np.argmin(dists))]
        return (label, None) if return_decision else label
    if backend.kind == "ideal_dot":
        if not isinstance(query, AccumulatorHV):
            raise TypeError("ideal_dot scores raw accumulators; pass the encoded accumulator")
        scores = [dot_bipolar(query, cm.accumulators[label]) for label in labels]
        label = labels[int(np.argmax(scores))]
        return (label, None) if return_decision else label
    layout = backend.layout if backend.layout is not None else cam.load_rows(cm)
    currents = cam.search_analog(layout, _query_bits(query), backend.profile, backend.params)
    decision = argmin_serial(currents, backend.sensing, backend.rng)
    label = layout.labels[decision.winner]
    return (label, decision) if return_decision else label


def retrain(cm, samples, epochs, backend, tie_break_seed=DEFAULT_TIE_BREAK_SEED, ledger=None):
    """Mispredicted samples move between accumulators; deployments refresh per epoch.

    Each misclassified sample is subtracted from the predicted class and
    added to its true class. Deployed binary vectors are re-binarized at
    epoch end, not per update.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    accumulators = dict(cm.accumulators)
    deployed = dict(cm.deployed)
    out = ClassMemory(cm.dim, cm.mode, accumulators)
    out.deployed = deployed
    for _ in range(epochs):
        for s in samples:
            query = s.acc if backend.kind == "ideal_dot" else s.bits
            predicted = predict(query, out, backend, ledger)
            if predicted != s.label:
                accumulators[predicted] = bundle_sub(accumulators[predicted], s.bits)
                accumulators[s.label] = bundle_add(accumulators[s.label], s.bits)
                _charge(ledger, "addition", 2)
        out.deployed = {
            label: binarize(acc, tie_break_seed) for label, acc in accumulators.items()
        }
    return out


@dataclass
class ClusterState:
    """Cluster centers, point assignments and the per-epoch assignment objective."""

    centers: list
    assignments: np.ndarray
    epoch: int
    threshold: int
    objective_history: list


def _assign_ideal(points_mat, centers):
    centers_mat = np.stack([c.bits for c in centers])
    dists = np.count_nonzero(points_mat[:, None, :] != centers_mat[None, :, :], axis=2)
    assignment = dists.argmin(axis=1)
    objective = int(dists[np.arange(len(assignment)), assignment].sum())
    return assignment, objective


def _assign_analog(points_mat, centers, backend):
    centers_mat = np.stack([c.bits for c in centers])
    currents = cam.analog_currents(centers_mat, points_mat, backend.profile, backend.params)
    assignment = np.array(
        [argmin_serial(currents[i], backend.sensing, backend.rng).winner for i in range(len(points_mat))]
    )
    dists = np.count_nonzero(points_mat[:, None, :] != centers_mat[None, :, :], axis=2)
    objective = int(dists[np.arange(len(assignment)), assignment].sum())
    return assignment, objective


def _farthest_point(points_mat, kept_centers):
    kept = np.stack([c.bits for c in kept_centers])
    dists = np.count_nonzero(points_mat[:, None, :] != kept[None, :, :], axis=2).min(axis=1)
    return int(dists.argmax())


def cluster(
    points,
    K,
    threshold,
    max_epochs,
    rng,
    backend,
    tie_break_seed=DEFAULT_TIE_BREAK_SEED,
    duplicate_margin=None,
    ledger=None,
):
    """K-center clustering in Hamming space.

    Random centers are refined by alternating nearest-center assignment and
    majority re-bundling until no center moves by threshold or more bits
    (measured in Hamming distance) or max_epochs runs out. Degenerate
    clusters, meaning empty ones or centers within duplicate_margin bits
    (default dim/4) of an earlier center, are re-seeded to the data point
    farthest from the surviving centers; random quasi-orthogonal clusters
    sit near dim/2 apart, so a pair inside dim/4 cannot represent two
    distinct clusters, and without re-seeding such pairs are absorbing.
    """
    if K < 2:
        raise ValueError("need at least 2 clusters")
    if K > MAX_CLASSES:
        raise CapacityError(f"{K} clusters exceed the {MAX_CLASSES}-row capacity")
    if len(points) < K:
        raise ValueError("need at least K points")
    dim = points[0].dim
    if duplicate_margin is None:
        duplicate_margin = dim // 4
    points_mat = np.stack([p.bits for p in points])
    centers = [random_hv(dim, rng) for _ in range(K)]
    assignments = np.zeros(len(points), dtype=np.int64)
    objective_history = []
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        if backend.kind == "analog_cam":
            assignments, objective = _assign_analog(points_mat, centers, backend)
        else:
            assignments, objective = _assign_ideal(points_mat, centers)
        _charge(ledger, "search", len(points))
        objective_history.append(objective)
        updated = []
        degenerate = []
        for k in range(K):
            members = np.flatnonzero(assignments == k)
            if len(members) == 0:
                updated.append(None)
                degenerate.append(k)
                continue
            acc = AccumulatorHV.zeros(dim)
            for i in members:
                acc = bundle_add(acc, points[i])
            _charge(ledger, "addition", len(members))
            new_center = binarize(acc, tie_break_seed)
            for earlier in updated:
                if earlier is not None and hamming(earlier, new_center) < duplicate_margin:
                    new_center = None
                    degenerate.append(k)
                    break
            updated.append(new_center)
        for k in degenerate:
            kept = [c for c in updated if c is not None]
            idx = _farthest_point(points_mat, kept) if kept else int(rng.generator.integers(len(points)))
            updated[k] = BipolarHV(dim, points_mat[idx].copy())
        delta = max(hamming(old, new) for old, new in zip(centers, updated))
        centers = updated
        if delta < threshold:
            break
    return ClusterState(
        centers=centers,
        assignments=assignments,
        epoch=epoch,
        threshold=threshold,
        objective_history=objective_history,
    )
