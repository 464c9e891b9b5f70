"""Batched loser-takes-all argmin over match-line currents.

The comparator sees at most 8 currents at a time. Longer row sets run
serially: the first batch's winner is carried into the next batch together
with 7 fresh rows, so one block serves any class count. Finite resolution is
modeled by treating any candidate within `resolution` of the batch minimum
as indistinguishable; such batches resolve by a seeded uniform draw and are
flagged ambiguous. Currents below the sensing floor read as zero.

`decide` senses a whole (queries, rows) current matrix: it runs every stage
for all queries at once and re-runs, with `argmin_serial` in query order,
only the queries one of whose stages was ambiguous. An unambiguous stage
draws nothing, so the tie-break stream is the one a query-by-query loop
would draw.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class SensingSpec:
    """Comparator resolution, sensing floor and batch width."""

    resolution: float = 0.2e-6
    floor: float = 1e-9
    batch: int = 8

    def __post_init__(self):
        if not self.resolution > self.floor > 0:
            raise ConfigError("need resolution > floor > 0")
        if self.batch < 2:
            raise ConfigError("batch width must be at least 2")


@dataclass
class BatchComparison:
    """One comparator pass: the rows seen, the chosen row, and ambiguity."""

    rows: tuple
    winner: int
    ambiguous: bool


@dataclass
class LtaDecision:
    """Final winner with the full comparison trace."""

    winner: int
    trace: list
    ambiguous_flags: int


def _resolve(currents, spec, rng):
    c = np.asarray(currents, dtype=np.float64)
    c = np.where(c < spec.floor, 0.0, c)
    m = c.min()
    candidates = np.flatnonzero(c <= m + spec.resolution)
    if len(candidates) > 1:
        return int(rng.choice(candidates)), True
    return int(candidates[0]), False


def argmin_serial(currents, spec, rng):
    """Serial LTA argmin over any number of rows, carrying each winner forward."""
    c = np.asarray(currents, dtype=np.float64)
    n = c.size
    if n < 1:
        raise ValueError("need at least one current")
    if n == 1:
        return LtaDecision(winner=0, trace=[], ambiguous_flags=0)
    trace = []
    flags = 0
    first = min(spec.batch, n)
    rows = list(range(first))
    pos = first
    while True:
        idx, ambiguous = _resolve(c[rows], spec, rng)
        winner = rows[idx]
        trace.append(BatchComparison(rows=tuple(rows), winner=winner, ambiguous=ambiguous))
        flags += int(ambiguous)
        if pos >= n:
            break
        rows = [winner] + list(range(pos, min(pos + spec.batch - 1, n)))
        pos = min(pos + spec.batch - 1, n)
    return LtaDecision(winner=winner, trace=trace, ambiguous_flags=flags)


def decide(currents, spec, rng):
    """(winners, flags) of a (q, k) current matrix: each query's argmin_serial
    winner and ambiguous-batch count, with the same draws from rng."""
    raw = np.asarray(currents, dtype=np.float64)
    q, k = raw.shape
    flags = np.zeros(q, dtype=np.int64)
    if k < 2:
        return np.zeros(q, dtype=np.int64), flags
    c = np.where(raw < spec.floor, 0.0, raw)

    def stage(s):
        """Argmin of each stage row, and whether another candidate lies within resolution."""
        m = s.min(axis=1, keepdims=True)
        return s.argmin(axis=1), (s <= m + spec.resolution).sum(axis=1) > 1

    first = min(spec.batch, k)
    winners, ambiguous = stage(c[:, :first])
    for pos in range(first, k, spec.batch - 1):
        stop = min(pos + spec.batch - 1, k)
        idx, amb = stage(np.column_stack((c[np.arange(q), winners], c[:, pos:stop])))
        winners = np.where(idx == 0, winners, pos + idx - 1)
        ambiguous |= amb
    for i in np.flatnonzero(ambiguous):
        decision = argmin_serial(raw[i], spec, rng)
        winners[i], flags[i] = decision.winner, decision.ambiguous_flags
    return winners, flags
