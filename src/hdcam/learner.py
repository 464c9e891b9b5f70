"""HDC classification (train / retrain / infer) and k-means-style clustering.

Class vectors are bundled from binarized sample encodings and deployed as
binary vectors; multibit similarity instead scores the raw accumulators with
the centered dot product. Search is one scoring step, a batch of queries
against every stored row, then one decision step: an ideal Hamming argmin, an
ideal dot-product argmax, or the modeled CAM fabric (match-line currents plus
serial LTA sensing). Prediction, retraining and cluster assignment share both.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cam
from .cost import charge_to
from .errors import CapacityError, ConfigError
from .hvcore import (
    DEFAULT_TIE_BREAK_SEED,
    AccumulatorHV,
    BipolarHV,
    binarize,
    bundle_add,
    bundle_sub,
    hamming,
    hamming_matrix,
    random_hv,
)
from .lta import SensingSpec, argmin_serial

MAX_CLASSES = 128

# Queries predict converts and scores at once; bounds the query matrix and the
# pairwise arrays of one scoring step whatever the batch size.
QUERY_BLOCK = 16

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
        """Wrap already-binary vectors (e.g. cluster centers) as a class memory."""
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
        charge_to(ledger, "addition")
    cm = ClassMemory(dim, mode, accumulators)
    cm.deployed = {label: binarize(acc, tie_break_seed) for label, acc in accumulators.items()}
    return cm


def _matrix(vectors, backend):
    """Vectors as the rows the backend scores: centred counts of accumulators for
    ideal_dot, bits of binary vectors otherwise."""
    if backend.kind == "ideal_dot":
        if not all(isinstance(v, AccumulatorHV) for v in vectors):
            raise TypeError("ideal_dot scores raw accumulators; pass the encoded accumulators")
        counts = np.stack([v.counts for v in vectors]).astype(np.float64)
        return counts - np.array([v.n_bundled for v in vectors])[:, None] / 2.0
    if not all(isinstance(v, BipolarHV) for v in vectors):
        raise TypeError("this backend expects binary (BipolarHV) queries")
    return np.stack([v.bits for v in vectors])


def _score(queries, rows, backend):
    """(n_queries, n_rows) scores: Hamming distances (ideal_hamming), centred dot
    products (ideal_dot) or match-line currents (analog_cam)."""
    if backend.kind == "ideal_hamming":
        return hamming_matrix(queries, rows)
    if backend.kind == "ideal_dot":
        return queries @ rows.T
    return cam.analog_currents(rows, queries, backend.profile, backend.params)


def _decide(scores, backend):
    """Winning row per query and the LTA decision per query (None when ideal).

    The analog LTA senses one query at a time, in query order, so its seeded
    tie-break stream does not depend on how queries were batched.
    """
    if backend.kind == "ideal_hamming":
        return scores.argmin(axis=1), [None] * len(scores)
    if backend.kind == "ideal_dot":
        return scores.argmax(axis=1), [None] * len(scores)
    decisions = [argmin_serial(s, backend.sensing, backend.rng) for s in scores]
    return np.array([d.winner for d in decisions], dtype=np.int64), decisions


def predict(queries, cm, backend, ledger=None):
    """(labels, decisions): the most similar class of each query under the backend.

    queries are BipolarHVs, or AccumulatorHVs for ideal_dot. decisions holds
    each query's LtaDecision (analog_cam) or None, so analog runs can export
    their comparison traces.
    """
    if not cm.deployed:
        raise ValueError("class memory has no deployed vectors")
    charge_to(ledger, "search", len(queries))
    labels = cm.labels
    stored = cm.accumulators if backend.kind == "ideal_dot" else cm.deployed
    rows = _matrix([stored[label] for label in labels], backend)
    scores = np.concatenate([
        _score(_matrix(queries[start : start + QUERY_BLOCK], backend), rows, backend)
        for start in range(0, len(queries), QUERY_BLOCK)
    ])
    winners, decisions = _decide(scores, backend)
    return [labels[i] for i in winners], decisions


def retrain(cm, samples, epochs, backend, tie_break_seed=DEFAULT_TIE_BREAK_SEED, ledger=None):
    """Mispredicted samples move between accumulators; deployments refresh per epoch.

    Each misclassified sample is subtracted from the predicted class and
    added to its true class. Deployed binary vectors are re-binarized at
    epoch end, not per update, so binary backends predict a whole epoch in
    one batch. ideal_dot scores the accumulators themselves, which every
    update changes, so it predicts online, one sample at a time.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    accumulators = dict(cm.accumulators)
    out = ClassMemory(cm.dim, cm.mode, accumulators)
    out.deployed = dict(cm.deployed)
    online = backend.kind == "ideal_dot"
    for _ in range(epochs):
        if samples and not online:
            batch, _ = predict([s.bits for s in samples], out, backend, ledger)
        for i, s in enumerate(samples):
            predicted = predict([s.acc], out, backend, ledger)[0][0] if online else batch[i]
            if predicted != s.label:
                accumulators[predicted] = bundle_sub(accumulators[predicted], s.bits)
                accumulators[s.label] = bundle_add(accumulators[s.label], s.bits)
                charge_to(ledger, "addition", 2)
        out.deployed = {
            label: binarize(acc, tie_break_seed) for label, acc in accumulators.items()
        }
    return out


@dataclass
class ClusterSpec:
    """Cluster count, center-movement stopping threshold (bits) and epoch cap."""

    k: int = 2
    threshold: int = 16
    max_epochs: int = 20

    def __post_init__(self):
        if self.k < 2 or self.threshold < 0 or self.max_epochs < 1:
            raise ConfigError("need k >= 2, threshold >= 0 and max_epochs >= 1")


@dataclass
class ClusterState:
    """Cluster centers, point assignments and the per-epoch assignment objective."""

    centers: list
    assignments: np.ndarray
    epoch: int
    threshold: int
    objective_history: list


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
    Points and centers are binary, so any backend but analog_cam assigns by
    exact Hamming distance.
    """
    if backend.kind != "analog_cam":
        backend = SimilarityBackend(kind="ideal_hamming")
    if K < 2:
        raise ValueError("need at least 2 clusters")
    if K > MAX_CLASSES:
        raise CapacityError(f"{K} clusters exceed the {MAX_CLASSES}-row capacity")
    if len(points) < K:
        raise ConfigError(f"need at least K = {K} points, got {len(points)}")
    dim = points[0].dim
    if duplicate_margin is None:
        duplicate_margin = dim // 4
    points_mat = np.stack([p.bits for p in points])
    centers = [random_hv(dim, rng) for _ in range(K)]
    assignments = np.zeros(len(points), dtype=np.int64)
    objective_history = []
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        centers_mat = np.stack([c.bits for c in centers])
        scores = _score(points_mat, centers_mat, backend)
        assignments, _ = _decide(scores, backend)
        charge_to(ledger, "search", len(points))
        dists = scores if backend.kind == "ideal_hamming" else hamming_matrix(points_mat, centers_mat)
        objective_history.append(int(dists[np.arange(len(points)), assignments].sum()))
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
            charge_to(ledger, "addition", len(members))
            new_center = binarize(acc, tie_break_seed)
            for earlier in updated:
                if earlier is not None and hamming(earlier, new_center) < duplicate_margin:
                    new_center = None
                    degenerate.append(k)
                    break
            updated.append(new_center)
        for k in degenerate:
            kept = [c.bits for c in updated if c is not None]
            if kept:
                idx = int(hamming_matrix(points_mat, np.stack(kept)).min(axis=1).argmax())
            else:
                idx = int(rng.generator.integers(len(points)))
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
