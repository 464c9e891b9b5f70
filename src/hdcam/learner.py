"""HDC classification (train / retrain / infer) and k-means-style clustering.

Samples, class bundles, deployed class vectors and cluster centres are
(n, dim) matrices. Each class bundles the binarized encodings of its samples
into an int16 count row with a size, and is deployed as the binary majority
row; multibit similarity instead scores the count rows with the centred dot
product. Search is one scoring step, a batch of queries against every stored
row, then one decision step: an ideal Hamming argmin, an ideal dot-product
argmax, or the modeled CAM fabric (match-line currents plus serial LTA
sensing). Prediction, retraining and cluster assignment share both.
"""

from dataclasses import dataclass

import numpy as np

from . import cam
from .cost import charge_to
from .errors import CapacityError, ConfigError, SaturationError
from .hvcore import COUNT_MAX, bundle_add, bundle_sub, hamming_matrix, majority, random_bits
from .lta import SensingSpec, decide

MAX_CLASSES = 128

# Queries that predict, and the ideal_dot retrain, convert and score at once;
# bounds the query matrix and the pairwise arrays of one scoring step whatever
# the batch size.
QUERY_BLOCK = 16

BACKEND_KINDS = ("ideal_hamming", "ideal_dot", "analog_cam")


@dataclass
class Encoded:
    """A batch of encoded inputs: (n, dim) majority bits, (n, dim) int16 bundle
    counts, (n,) bundle sizes and n labels. counts is None in a bits-only
    batch, which every backend but ideal_dot scores."""

    bits: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    labels: list

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, rows):
        """The samples of a slice, as a batch."""
        counts = None if self.counts is None else self.counts[rows]
        return Encoded(self.bits[rows], counts, self.sizes[rows], self.labels[rows])


@dataclass
class ClassMemory:
    """Class labels, the (k, dim) int16 class bundle counts, their (k,) sizes
    and the (k, dim) deployed binary rows, all in label order."""

    labels: list
    counts: np.ndarray
    sizes: np.ndarray
    deployed: np.ndarray

    def __post_init__(self):
        if len(self.labels) > MAX_CLASSES:
            raise CapacityError(f"{len(self.labels)} classes exceed the {MAX_CLASSES}-row capacity")


def _deploy(labels, counts, sizes):
    """Class memory whose deployed rows are the majorities of the class bundles."""
    return ClassMemory(labels, counts, sizes, majority(counts, sizes))


@dataclass
class SimilarityBackend:
    """Similarity engine selection; analog needs the electrical context, whose
    sensing floor must sit well below one mismatch's current."""

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
            if self.sensing.floor * 100 > self.params.i_cell_nominal:
                raise ConfigError(f"sensing floor {self.sensing.floor:g} A is not well below one "
                                  f"mismatch's current {self.params.i_cell_nominal:g} A")


def train(batch, ledger=None):
    """Bundle each class's sample bits and deploy their majorities."""
    if not len(batch):
        raise ValueError("cannot train on an empty batch")
    labels = list(dict.fromkeys(batch.labels))
    if len(labels) > MAX_CLASSES:
        raise CapacityError(f"more than {MAX_CLASSES} classes")
    rows = np.array([labels.index(label) for label in batch.labels])
    counts = np.stack([batch.bits[rows == k].sum(axis=0, dtype=np.int32) for k in range(len(labels))])
    if counts.max() > COUNT_MAX:
        raise SaturationError("class counts outside the signed 16-bit range")
    charge_to(ledger, "addition", len(batch))
    return _deploy(labels, counts.astype(np.int16), np.bincount(rows))


def _check_scorable(batch, backend):
    """Raise ConfigError when ideal_dot, which scores bundle counts, gets a bits-only batch."""
    if backend.kind == "ideal_dot" and batch.counts is None:
        raise ConfigError("ideal_dot scores bundle counts, and this batch keeps only bits "
                          "(counts are kept in multibit mode)")


def _centred(counts, sizes):
    """Bundle counts centred on half their bundle sizes, as float64 rows."""
    return counts - np.asarray(sizes)[:, None] / 2.0


def _score(queries, rows, backend):
    """(n_queries, n_rows) scores: Hamming distances (ideal_hamming), centred dot
    products (ideal_dot) or match-line currents (analog_cam)."""
    if backend.kind == "ideal_hamming":
        return hamming_matrix(queries, rows)
    if backend.kind == "ideal_dot":
        return queries @ rows.T
    return cam.analog_currents(rows, queries, backend.profile, backend.params)


def _decide(scores, backend):
    """Winning row and LTA ambiguous-batch count per query (counts all 0 when ideal).

    The analog LTA's seeded tie-breaks are drawn in query order, so its
    decisions do not depend on how queries were batched.
    """
    if backend.kind == "ideal_hamming":
        return scores.argmin(axis=1), np.zeros(len(scores), dtype=np.int64)
    if backend.kind == "ideal_dot":
        return scores.argmax(axis=1), np.zeros(len(scores), dtype=np.int64)
    return decide(scores, backend.sensing, backend.rng)


def predict(batch, cm, backend, ledger=None):
    """(labels, flags): the most similar class of each sample under the backend.

    ideal_dot scores the batch's centred counts against the centred class
    counts; the other backends score its bits against the deployed
    rows. flags is an int array of each query's ambiguous LTA batches
    (analog_cam), all 0 on the ideal backends.
    """
    if not cm.labels:
        raise ValueError("class memory has no deployed vectors")
    _check_scorable(batch, backend)
    charge_to(ledger, "search", len(batch))
    dot = backend.kind == "ideal_dot"
    rows = _centred(cm.counts, cm.sizes) if dot else cm.deployed
    scores = []
    for start in range(0, len(batch), QUERY_BLOCK):
        part = batch[start : start + QUERY_BLOCK]
        scores.append(_score(_centred(part.counts, part.sizes) if dot else part.bits, rows, backend))
    winners, flags = _decide(np.concatenate(scores), backend)
    return [cm.labels[i] for i in winners], flags


def _move(counts, sizes, bits, old, new):
    """Move one sample's bits from class bundle old to class bundle new."""
    counts[old] = bundle_sub(counts[old], bits, sizes[old])
    counts[new] = bundle_add(counts[new], bits)
    sizes[old] -= 1
    sizes[new] += 1


def _dot_epoch(batch, row, counts, sizes, ledger):
    """One online ideal_dot retrain epoch over the batch, in sample order;
    returns the number of updates.

    Each sample is scored against the class counts as every earlier update
    left them. A block of QUERY_BLOCK samples is scored at once, as predict
    does; an update moves the sample's bits from class old to class new,
    which changes those two centred class rows by -/+(bits - 1/2), so the
    later samples of the block get their old and new scores moved by
    -/+ Qc . (bits - 1/2). Every centred count is a multiple of 1/2, so every
    product and partial sum is a multiple of 1/4 far below 2**53: the scores,
    and so the argmax ties, equal those of predicting one sample at a time.
    """
    charge_to(ledger, "search", len(batch))
    rows = _centred(counts, sizes)
    updates = 0
    for start in range(0, len(batch), QUERY_BLOCK):
        part = batch[start : start + QUERY_BLOCK]
        queries = _centred(part.counts, part.sizes)
        scores = queries @ rows.T
        for i, label in enumerate(part.labels):
            old, new = int(scores[i].argmax()), row[label]
            if old != new:
                _move(counts, sizes, part.bits[i], old, new)
                step = queries[i + 1 :] @ (part.bits[i] - 0.5)
                scores[i + 1 :, old] -= step
                scores[i + 1 :, new] += step
                rows[[old, new]] = _centred(counts[[old, new]], sizes[[old, new]])
                updates += 1
    return updates


def retrain(cm, batch, epochs, backend, ledger=None):
    """Mispredicted samples move between class bundles; deployments refresh per epoch.

    Each misclassified sample is subtracted from the predicted class's count
    row and added to its true class's. Deployed binary rows are re-binarized
    at epoch end, not per update, so binary backends predict a whole epoch in
    one batch. ideal_dot scores the count rows themselves, which every update
    changes, so each sample sees the updates before it: the epoch is scored
    in blocks and each update corrects the scores of the samples after it
    (_dot_epoch), with the same results and ledger counts as predicting one
    sample at a time.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    _check_scorable(batch, backend)
    row = {label: k for k, label in enumerate(cm.labels)}
    counts, sizes = cm.counts.copy(), cm.sizes.copy()
    out = ClassMemory(cm.labels, counts, sizes, cm.deployed)
    for _ in range(epochs):
        if backend.kind == "ideal_dot":
            updates = _dot_epoch(batch, row, counts, sizes, ledger)
        else:
            predicted = predict(batch, out, backend, ledger)[0] if len(batch) else []
            updates = 0
            for i, (guess, label) in enumerate(zip(predicted, batch.labels)):
                if guess != label:
                    _move(counts, sizes, batch.bits[i], row[guess], row[label])
                    updates += 1
        charge_to(ledger, "addition", 2 * updates)
        out = _deploy(cm.labels, counts, sizes)
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


def check_cluster_backend(backend):
    """ConfigError unless the backend compares binary points."""
    if backend.kind == "ideal_dot":
        raise ConfigError("clustering compares binary points; multibit (ideal_dot) cannot cluster")


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
    check_cluster_backend(backend)
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
        for k in [k for k in range(K) if k not in kept]:
            idx = int(farthest.argmax())
            updated[k] = points[idx]
            farthest = np.minimum(farthest, hamming_matrix(points, points[idx])[:, 0])
        delta = hamming_matrix(centers, updated).diagonal().max()
        centers = updated
        if delta < spec.threshold:
            break
    return ClusterState(centers, assignments, epoch, objective_history)
