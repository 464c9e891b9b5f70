"""HDC classification (train / retrain / infer) and k-means-style clustering.

Samples, deployed class vectors and cluster centres are (n, dim) matrices.
Class vectors are bundled from binarized sample encodings and deployed as
binary rows; multibit similarity instead scores the raw accumulators with
the centered dot product. Search is one scoring step, a batch of queries
against every stored row, then one decision step: an ideal Hamming argmin, an
ideal dot-product argmax, or the modeled CAM fabric (match-line currents plus
serial LTA sensing). Prediction, retraining and cluster assignment share both.
"""

from dataclasses import dataclass

import numpy as np

from . import cam
from .cost import charge_to
from .errors import CapacityError, ConfigError
from .hvcore import (
    AccumulatorHV,
    BipolarHV,
    bundle_add,
    bundle_sub,
    hamming_matrix,
    majority,
    random_bits,
)
from .lta import SensingSpec, argmin_serial

MAX_CLASSES = 128

# Queries predict converts and scores at once; bounds the query matrix and the
# pairwise arrays of one scoring step whatever the batch size.
QUERY_BLOCK = 16

BACKEND_KINDS = ("ideal_hamming", "ideal_dot", "analog_cam")


@dataclass
class Encoded:
    """A batch of encoded inputs: (n, dim) majority bits, (n, dim) int16 bundle
    counts, (n,) bundle sizes and n labels."""

    bits: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    labels: list

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, rows):
        """The samples of a slice, as a batch."""
        return Encoded(self.bits[rows], self.counts[rows], self.sizes[rows], self.labels[rows])


@dataclass
class ClassMemory:
    """Class labels, one training accumulator per class and the (k, dim)
    deployed binary rows, all in label order."""

    labels: list
    accumulators: list
    deployed: np.ndarray

    def __post_init__(self):
        if len(self.labels) > MAX_CLASSES:
            raise CapacityError(f"{len(self.labels)} classes exceed the {MAX_CLASSES}-row capacity")


def _deploy(labels, accumulators):
    """Class memory whose deployed rows are the majorities of the accumulators."""
    counts = np.stack([acc.counts for acc in accumulators])
    return ClassMemory(labels, accumulators, majority(counts, [acc.n_bundled for acc in accumulators]))


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


def train(batch, ledger=None):
    """Bundle each class's sample bits and deploy their majorities."""
    if not len(batch):
        raise ValueError("cannot train on an empty batch")
    labels = list(dict.fromkeys(batch.labels))
    if len(labels) > MAX_CLASSES:
        raise CapacityError(f"more than {MAX_CLASSES} classes")
    rows = np.array([labels.index(label) for label in batch.labels])
    dim = batch.bits.shape[1]
    accumulators = []
    for k in range(len(labels)):
        members = batch.bits[rows == k]
        accumulators.append(AccumulatorHV(dim, members.sum(axis=0), len(members)))
    charge_to(ledger, "addition", len(batch))
    return _deploy(labels, accumulators)


def _centred(counts, sizes):
    """Bundle counts centred on half their bundle sizes, as float64 rows."""
    return counts.astype(np.float64) - np.asarray(sizes)[:, None] / 2.0


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


def predict(batch, cm, backend, ledger=None):
    """(labels, decisions): the most similar class of each sample under the backend.

    ideal_dot scores the batch's centred counts against the class
    accumulators; the other backends score its bits against the deployed
    rows. decisions holds each query's LtaDecision (analog_cam) or None, so
    analog runs can export their comparison traces.
    """
    if not cm.labels:
        raise ValueError("class memory has no deployed vectors")
    charge_to(ledger, "search", len(batch))
    dot = backend.kind == "ideal_dot"
    if dot:
        accs = cm.accumulators
        rows = _centred(np.stack([a.counts for a in accs]), [a.n_bundled for a in accs])
    else:
        rows = cm.deployed
    scores = []
    for start in range(0, len(batch), QUERY_BLOCK):
        part = batch[start : start + QUERY_BLOCK]
        scores.append(_score(_centred(part.counts, part.sizes) if dot else part.bits, rows, backend))
    winners, decisions = _decide(np.concatenate(scores), backend)
    return [cm.labels[i] for i in winners], decisions


def retrain(cm, batch, epochs, backend, ledger=None):
    """Mispredicted samples move between accumulators; deployments refresh per epoch.

    Each misclassified sample is subtracted from the predicted class and
    added to its true class. Deployed binary rows are re-binarized at epoch
    end, not per update, so binary backends predict a whole epoch in one
    batch. ideal_dot scores the accumulators themselves, which every update
    changes, so it predicts online, one sample at a time.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    row = {label: k for k, label in enumerate(cm.labels)}
    # out shares this list, so online predictions see every update at once.
    accumulators = list(cm.accumulators)
    out = ClassMemory(cm.labels, accumulators, cm.deployed)
    online = backend.kind == "ideal_dot"
    dim = batch.bits.shape[1]
    for _ in range(epochs):
        if len(batch) and not online:
            predicted, _ = predict(batch, out, backend, ledger)
        updates = 0
        for i, label in enumerate(batch.labels):
            guess = predict(batch[i : i + 1], out, backend, ledger)[0][0] if online else predicted[i]
            if guess != label:
                hv = BipolarHV(dim, batch.bits[i])
                accumulators[row[guess]] = bundle_sub(accumulators[row[guess]], hv)
                accumulators[row[label]] = bundle_add(accumulators[row[label]], hv)
                updates += 1
        charge_to(ledger, "addition", 2 * updates)
        out = _deploy(cm.labels, accumulators)
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
    """(K, dim) cluster centres, point assignments and the per-epoch assignment objective."""

    centers: np.ndarray
    assignments: np.ndarray
    epoch: int
    objective_history: list


def cluster(points, spec, rng, backend, ledger=None):
    """K-center clustering of an (n, dim) bit matrix in Hamming space.

    Random centers are refined by alternating nearest-center assignment and
    majority re-bundling until no center moves by spec.threshold or more
    bits (measured in Hamming distance) or spec.max_epochs runs out.
    Degenerate clusters, meaning empty ones or centers within dim/4 bits of
    an earlier kept center, are re-seeded in index order, each to the data
    point farthest from the centers kept so far; random quasi-orthogonal
    clusters sit near dim/2 apart, so a pair inside dim/4 cannot represent
    two distinct clusters, and without re-seeding such pairs are absorbing.
    Points and centers are binary, so the backend must be ideal_hamming or
    analog_cam.
    """
    if backend.kind == "ideal_dot":
        raise ConfigError("clustering compares binary points; multibit (ideal_dot) cannot cluster")
    K = spec.k
    if K > MAX_CLASSES:
        raise CapacityError(f"{K} clusters exceed the {MAX_CLASSES}-row capacity")
    n, dim = points.shape
    if n < K:
        raise ConfigError(f"need at least K = {K} points, got {n}")
    centers = random_bits(K, dim, rng)
    objective_history = []
    for epoch in range(1, spec.max_epochs + 1):
        scores = _score(points, centers, backend)
        assignments, _ = _decide(scores, backend)
        charge_to(ledger, "search", n)
        dists = scores if backend.kind == "ideal_hamming" else hamming_matrix(points, centers)
        objective_history.append(int(dists[np.arange(n), assignments].sum()))
        sizes = np.bincount(assignments, minlength=K)
        counts = np.stack([points[assignments == k].sum(axis=0) for k in range(K)])
        charge_to(ledger, "addition", n)
        updated = np.zeros_like(centers)
        filled = np.flatnonzero(sizes)
        updated[filled] = majority(counts[filled], sizes[filled])
        # Keep, in index order, each filled centre not within dim/4 of one kept before it.
        near = hamming_matrix(updated, updated) < dim // 4
        kept = []
        for k in filled:
            if not near[k, kept].any():
                kept.append(k)
        # Re-seed the rest, in index order, to the point farthest from every kept centre.
        farthest = hamming_matrix(points, updated[kept]).min(axis=1)
        for k in np.setdiff1d(np.arange(K), kept):
            idx = int(farthest.argmax())
            updated[k] = points[idx]
            farthest = np.minimum(farthest, hamming_matrix(points, points[idx])[:, 0])
        delta = hamming_matrix(centers, updated).diagonal().max()
        centers = updated
        if delta < spec.threshold:
            break
    return ClusterState(centers, assignments, epoch, objective_history)
