"""HDC classification (train / retrain / infer) and k-means-style clustering.

Samples, deployed class vectors and cluster centres are (n, dim/64) packed
rows (see hvcore), unpacked only where bits are added to sums or reach the
analog cells. Each class bundles its samples' rows into an int16 row of
bipolar sums, and is deployed as the packed majority row. The batch decides
how it is scored: one that keeps its bundle sums (multibit) is scored by the
dot product of its sums with the class sum rows, the ideal software
reference; any other batch's packed rows are searched against the stored
rows, by Hamming argmin or, given an AnalogCam, on the modeled CAM fabric
(match-line currents plus serial LTA sensing). Prediction, retraining and
cluster assignment share that search.
"""

from dataclasses import dataclass

import numpy as np

from . import cam
from .cost import charge_to
from .errors import CapacityError, ConfigError, SaturationError
from .hvcore import (COUNT_MAX, bundle_add, bundle_sub, hamming_matrix, majority, pack_rows, random_bits,
                     unpack_rows)
from .lta import SensingSpec, decide

MAX_CLASSES = 128

# Queries that predict, cluster and the dot-scored retrain convert and score
# at once; bounds the query matrix and the pairwise arrays of one scoring step
# whatever the batch size.
QUERY_BLOCK = 16


@dataclass
class Encoded:
    """A batch of encoded inputs: (n, dim/64) packed majority rows, (n, dim)
    int16 bipolar bundle sums and n labels. A batch that keeps sums
    (multibit) is dot-scored; sums is None in a bits-only (binary) batch,
    whose packed rows are searched."""

    bits: np.ndarray
    sums: np.ndarray
    labels: list

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, rows):
        """The samples of a slice, as a batch."""
        sums = None if self.sums is None else self.sums[rows]
        return Encoded(self.bits[rows], sums, self.labels[rows])


@dataclass
class ClassMemory:
    """Class labels, the (k, dim) int16 class bundle sums and the (k, dim/64)
    deployed packed majority rows, all in label order."""

    labels: list
    sums: np.ndarray
    deployed: np.ndarray

    def __post_init__(self):
        if len(self.labels) > MAX_CLASSES:
            raise CapacityError(f"{len(self.labels)} classes exceed the {MAX_CLASSES}-row capacity")


def _deploy(labels, sums):
    """Class memory whose deployed rows are the majorities of the class bundles."""
    return ClassMemory(labels, sums, majority(sums))


@dataclass
class AnalogCam:
    """The modeled CAM fabric that searches packed rows: its voltage profile,
    analog params, LTA sensing spec and the LTA's tie-break rng. The sensing
    floor must sit well below one mismatch's current."""

    profile: cam.VoltageProfile
    params: cam.AnalogParams
    sensing: SensingSpec
    rng: object

    def __post_init__(self):
        if self.sensing.floor * 100 > self.params.i_cell_nominal:
            raise ConfigError(f"sensing floor {self.sensing.floor:g} A is not well below one "
                              f"mismatch's current {self.params.i_cell_nominal:g} A")


def _bundle(rows, groups, k):
    """(k, dim) int16 bipolar sums of k bundles of packed rows, each its size
    less twice its counts of 1 bits: row i is added to bundle groups[i]."""
    sums = np.stack([unpack_rows(rows[groups == g]).sum(axis=0, dtype=np.int32) for g in range(k)])
    sums *= -2
    sums += np.bincount(groups, minlength=k)[:, None]
    if sums.max() > COUNT_MAX or sums.min() < -COUNT_MAX:
        raise SaturationError("bundle sums outside the 16-bit range +-32767")
    return sums.astype(np.int16)


def train(batch, ledger=None):
    """Bundle each class's sample bits and deploy their majorities."""
    if not len(batch):
        raise ValueError("cannot train on an empty batch")
    row = {label: k for k, label in enumerate(dict.fromkeys(batch.labels))}
    if len(row) > MAX_CLASSES:
        raise CapacityError(f"more than {MAX_CLASSES} classes")
    sums = _bundle(batch.bits, np.array([row[label] for label in batch.labels]), len(row))
    charge_to(ledger, "addition", len(batch))
    return _deploy(list(row), sums)


def _check_analog(batch, analog):
    """Raise ConfigError when a batch that keeps sums, which are dot-scored, meets the analog CAM."""
    if analog is not None and batch.sums is not None:
        raise ConfigError("the analog CAM searches binary rows, and this batch keeps multibit sums")


def _score_blocks(queries, score):
    """score(block) of every block of QUERY_BLOCK queries, concatenated. No
    queries are one empty block, so they get an empty (0, k) score matrix."""
    starts = range(0, max(len(queries), 1), QUERY_BLOCK)
    return np.concatenate([score(queries[start : start + QUERY_BLOCK]) for start in starts])


def _search(queries, rows, analog):
    """(winners, flags, scores) of packed query rows against packed stored rows:
    the Hamming distances and their argmin, or on the analog CAM the match-line
    currents and the LTA's decisions. flags counts each query's ambiguous LTA
    batches, all 0 without the analog CAM.

    The analog LTA's seeded tie-breaks are drawn in query order, so its
    decisions do not depend on how queries were batched.
    """
    if analog is None:
        scores = _score_blocks(queries, lambda part: hamming_matrix(part, rows))
        return scores.argmin(axis=1), np.zeros(len(scores), dtype=np.int64), scores
    bits = unpack_rows(rows)
    scores = _score_blocks(
        queries, lambda part: cam.analog_currents(bits, unpack_rows(part), analog.profile, analog.params))
    return *decide(scores, analog.sensing, analog.rng), scores


def predict(batch, cm, analog=None, ledger=None):
    """(labels, flags): the most similar class of each sample.

    A batch that keeps sums is scored by the dot product of its sums with
    the class sums, in float64, exact for 16-bit sums at dim 2048 (below
    2**53); a bits-only batch's packed rows are searched against the
    deployed rows (_search). flags is an int array of each query's ambiguous
    LTA batches, all 0 but on the analog CAM.
    """
    if not cm.labels:
        raise ValueError("class memory has no deployed vectors")
    _check_analog(batch, analog)
    charge_to(ledger, "search", len(batch))
    if batch.sums is None:
        winners, flags, _ = _search(batch.bits, cm.deployed, analog)
        return [cm.labels[i] for i in winners], flags
    rows = cm.sums.astype(np.float64)
    scores = _score_blocks(batch.sums, lambda part: part.astype(np.float64) @ rows.T)
    return [cm.labels[i] for i in scores.argmax(axis=1)], np.zeros(len(batch), dtype=np.int64)


def _move(sums, row, old, new):
    """Move one sample's packed row from class bundle old to class bundle new; returns its bits."""
    bits = unpack_rows(row)
    sums[old] = bundle_sub(sums[old], bits)
    sums[new] = bundle_add(sums[new], bits)
    return bits


def _dot_epoch(batch, row, sums, ledger):
    """One online dot-scored retrain epoch over the batch, in sample order;
    returns the number of updates.

    Each sample is scored against the class sums as every earlier update
    left them. A block of QUERY_BLOCK samples is scored at once, as predict
    does; an update moves the sample's bipolar row 1 - 2 * bits from class
    old to class new, so the later samples of the block get their old and
    new scores moved by -/+ q . (1 - 2 * bits). Scores are integers below
    2**53, so every float64 product and partial sum is exact: the scores, and
    so the argmax ties, equal those of predicting one sample at a time.
    """
    charge_to(ledger, "search", len(batch))
    rows = sums.astype(np.float64)
    updates = 0
    for start in range(0, len(batch), QUERY_BLOCK):
        part = batch[start : start + QUERY_BLOCK]
        queries = part.sums.astype(np.float64)
        scores = queries @ rows.T
        for i, label in enumerate(part.labels):
            old, new = int(scores[i].argmax()), row[label]
            if old != new:
                bits = _move(sums, part.bits[i], old, new)
                step = queries[i + 1 :] @ (1 - 2.0 * bits)
                scores[i + 1 :, old] -= step
                scores[i + 1 :, new] += step
                rows[[old, new]] = sums[[old, new]]
                updates += 1
    return updates


def retrain(cm, batch, epochs, analog=None, ledger=None):
    """Mispredicted samples move between class bundles; deployments refresh per epoch.

    Each misclassified sample is subtracted from the predicted class's sum
    row and added to its true class's; the predicted class may never have
    held the sample. Deployed binary rows are re-binarized at epoch end, not
    per update, so a bits-only batch is predicted a whole epoch at once, by
    Hamming argmin or on the analog CAM. A batch that keeps sums is
    dot-scored against the sum rows themselves, which every update changes,
    so each sample sees the updates before it: the epoch is scored in blocks
    and each update corrects the scores of the samples after it
    (_dot_epoch), with the same results and ledger counts as predicting one
    sample at a time.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    _check_analog(batch, analog)
    row = {label: k for k, label in enumerate(cm.labels)}
    sums = cm.sums.copy()
    out = ClassMemory(cm.labels, sums, cm.deployed)
    for _ in range(epochs):
        if batch.sums is not None:
            updates = _dot_epoch(batch, row, sums, ledger)
        else:
            predicted = predict(batch, out, analog, ledger)[0]
            updates = 0
            for i, (guess, label) in enumerate(zip(predicted, batch.labels)):
                if guess != label:
                    _move(sums, batch.bits[i], row[guess], row[label])
                    updates += 1
        charge_to(ledger, "addition", 2 * updates)
        out = _deploy(cm.labels, sums)
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
    """(K, dim/64) packed centres, point assignments and the per-epoch assignment objective."""

    centers: np.ndarray
    assignments: np.ndarray
    epoch: int
    objective_history: list


def cluster(points, spec, rng, analog=None, ledger=None):
    """K-center clustering of (n, dim/64) packed rows in Hamming space.

    Random centers are refined by alternating nearest-center assignment and
    majority re-bundling until no center moves by spec.threshold or more
    bits (measured in Hamming distance) or spec.max_epochs runs out.
    Degenerate clusters, meaning empty ones or centers within dim/4 bits of
    an earlier kept center, are re-seeded in index order, each to the data
    point farthest from the centers kept so far; random quasi-orthogonal
    clusters sit near dim/2 apart, so a pair inside dim/4 cannot represent
    two distinct clusters, and without re-seeding such pairs are absorbing.
    Points are assigned by the packed-row search (_search): Hamming argmin,
    or on the analog CAM when one is given.
    """
    K = spec.k
    if K > MAX_CLASSES:
        raise CapacityError(f"{K} clusters exceed the {MAX_CLASSES}-row capacity")
    n, dim = len(points), 64 * points.shape[1]
    if n < K:
        raise ConfigError(f"need at least K = {K} points, got {n}")
    centers = pack_rows(random_bits(K, dim, rng))
    objective_history = []
    for epoch in range(1, spec.max_epochs + 1):
        assignments, _, scores = _search(points, centers, analog)
        charge_to(ledger, "search", n)
        dists = scores if analog is None else hamming_matrix(points, centers)
        objective_history.append(int(dists[np.arange(n), assignments].sum()))
        sums = _bundle(points, assignments, K)
        charge_to(ledger, "addition", n)
        updated = majority(sums)  # an empty cluster's row is re-seeded below
        # Keep, in index order, each filled centre not within dim/4 of one kept before it.
        near = hamming_matrix(updated, updated) < dim // 4
        kept = []
        for k in np.flatnonzero(np.bincount(assignments, minlength=K)):
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
