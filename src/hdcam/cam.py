"""Behavioral model of the SOT-CAM search fabric.

Class rows live in up to 16 banks of 128x128 cells. A query drives all rows
in parallel; in each bank every mismatching cell sources current into the
row's match line, and a current-sum block adds the per-bank currents, so the
total encodes the Hamming distance.

The analog path models the match line as a resistive ladder. Column 0 of a
bank sits next to the sensing node (held at reference potential) and column
127 is farthest; one segment resistance r_segment separates adjacent taps.
A mismatching cell at column j behaves as a square-law injector

    i_j = g_cell * max(0, a_j - c_j * i_j)^2,   a_j = max(0, gamma * V_search(j) - v_th)

where c_j = r_segment * (j + 1) and c_j * i_j is the ladder potential the
cell's own current builds over its path to the sensing node. Cross-cell
loading of the shared line is deliberately not modeled: with it, the curve's
bend tracks the total line current, which no static search-voltage profile
can compensate; the per-path form keeps the IR drop a positional quantity,
matching the observed near-linear drop gradient along the line and making
the drop correctable. Each cell is thus its own scalar quadratic, whose
physical (smaller) root is taken in the cancellation-free form

    i_j = 2 g a_j^2 / (1 + 2 g c_j a_j + sqrt(1 + 4 g c_j a_j)),

exact at r_segment = 0. The current depends only on the column and the
search levels, so a row's sensed current is its mismatch mask dotted with
the 128 column weights tiled over its banks: a column-weighted Hamming
distance, which analog_currents computes for a whole query batch at once.
Far cells lose gate overdrive and weigh less, bending the current-vs-distance
curve. Search-voltage scaling counteracts this: the 128 columns split into
four 32-column segments, each driven at its own level, higher levels farther
from the sensing node.

MTJ resistances (parallel 1.25 MOhm, anti-parallel 3.44 MOhm) justify
treating per-cell search energy as negligible; they play no role in the
ladder model, so no constant holds them.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, CalibrationWarning, ConfigError, DimensionError
from .hvcore import BANK_COLS

N_SEGMENTS = 4
SEGMENT_COLS = BANK_COLS // N_SEGMENTS

# Calibration search: levels move on a CAL_GRID_STEP grid inside [CAL_V_LO,
# CAL_V_HI] for at most CAL_MAX_SWEEPS coordinate sweeps.
CAL_GRID_STEP = 0.01
CAL_V_LO = 0.8
CAL_V_HI = 1.2
CAL_MAX_SWEEPS = 25

# Seed of the column shuffle that places a transfer curve's mismatches.
PLACEMENT_SEED = 12021


@dataclass
class AnalogParams:
    """Electrical constants of the match-line model."""

    r_segment: float = 1000.0
    g_cell: float = 6.25e-6
    v_th: float = 0.2
    gamma: float = 0.6

    def __post_init__(self):
        for name in ("g_cell", "v_th", "gamma"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.r_segment >= 0:
            raise ConfigError("r_segment must be non-negative")
        if self.gamma * 1.0 - self.v_th <= 0:
            raise ConfigError("v_th leaves no overdrive at a 1 V search level")

    @property
    def i_cell_nominal(self):
        """Per-mismatch current at zero IR drop under a 1 V search level."""
        return self.g_cell * (self.gamma * 1.0 - self.v_th) ** 2


@dataclass
class VoltageProfile:
    """Per-segment search levels, listed from the far segment toward the sensing node."""

    levels: tuple

    def __post_init__(self):
        self.levels = tuple(float(v) for v in self.levels)
        if len(self.levels) != N_SEGMENTS:
            raise ConfigError(f"profile needs {N_SEGMENTS} levels")
        for v in self.levels:
            if not 0 < v <= 1.2:
                raise ConfigError("levels must lie in (0, 1.2] V")
        for far, near in zip(self.levels, self.levels[1:]):
            if far < near - 1e-12:
                raise ConfigError("levels must be non-increasing toward the sensing node")

    @classmethod
    def uniform(cls, v=1.0):
        return cls((v,) * N_SEGMENTS)

    def column_voltages(self):
        """Per-column level, indexed by distance from the sensing node (col 0 nearest)."""
        return np.repeat(np.asarray(self.levels[::-1], dtype=np.float64), SEGMENT_COLS)


_K1 = np.arange(1, BANK_COLS + 1, dtype=np.float64)


def column_currents(v_cols, params):
    """Current one mismatching cell sources at each column: the physical root of
    g_cell * (a - c * i)^2 = i with c = r_segment * (col + 1)."""
    a = np.clip(params.gamma * np.asarray(v_cols, dtype=np.float64) - params.v_th, 0.0, None)
    gca = params.g_cell * params.r_segment * _K1 * a
    return 2.0 * params.g_cell * a**2 / (1.0 + 2.0 * gca + np.sqrt(1.0 + 4.0 * gca))


def solve_bank_currents(mismatch, v_cols, params):
    """Per-bank sensed currents, shape mismatch.shape[:-1].

    mismatch: (..., 128) boolean injector mask, one row per bank instance.
    v_cols:   search level per column, (128,) or broadcastable to mismatch.
    """
    # Off the search path; kept as the per-bank reference the scipy-oracle
    # tests check, and because bench/tracer.py patches it by name.
    return np.sum(np.asarray(mismatch, dtype=bool) * column_currents(v_cols, params), axis=-1)


def analog_currents(rows_bits, queries_bits, profile, params):
    """Match-line currents of every (query, row) pair, shape (n_queries, n_rows).

    rows_bits and queries_bits are (n, dim) uint8 bit matrices. A pair's
    current is the column-weighted Hamming distance sum_c w[c] * (q_c != r_c),
    with w the 128 column_currents tiled over the banks: the sum of the
    query's ones against the row's weighted zeros and of its zeros against
    the row's weighted ones. Both add only non-negative weights, so zero
    mismatches read exactly 0.0 and one mismatch exactly its column weight;
    einsum reduces each pair on its own, so a query's currents do not depend
    on the batch it is scored in.
    """
    rows = np.atleast_2d(rows_bits)
    queries = np.atleast_2d(queries_bits)
    width = rows.shape[1]
    if queries.shape[1] != width:
        raise DimensionError("row and query widths differ")
    if width == 0 or width % BANK_COLS:
        raise AlignmentError("bit length must be a positive multiple of 128")
    w = np.tile(column_currents(profile.column_voltages(), params), width // BANK_COLS)
    return np.einsum("qc,rc->qr", queries, (1 - rows) * w) + np.einsum("qc,rc->qr", 1 - queries, rows * w)


def search_analog(rows_bits, query_bits, profile, params):
    """Match-line current of one query against every row, (n_rows,)."""
    # Off the search path, which batches queries; kept because tests score
    # single queries with it and bench/tracer.py patches it by name.
    return analog_currents(rows_bits, query_bits, profile, params)[0]


@functools.cache
def _placement_order():
    """The column shuffle of PLACEMENT_SEED, drawn on first use: a draw at
    import would make importing this module import numpy.random."""
    order = np.random.default_rng(PLACEMENT_SEED).permutation(BANK_COLS)
    order.flags.writeable = False
    return order


def transfer_curve(profile, params):
    """Per-bank sensed current for h = 0..128 mismatches, a (129,) array indexed by h.

    Mismatch positions for h are the first h columns of one shuffle with the
    fixed PLACEMENT_SEED, so each segment's cells spread over the whole range
    and successive points share a placement prefix.
    """
    weights = column_currents(profile.column_voltages(), params)[_placement_order()]
    return np.concatenate(([0.0], np.cumsum(weights)))


def max_line_deviation(curve):
    """Largest absolute deviation of a transfer curve, currents indexed by
    Hamming distance, from its least-squares line."""
    c = np.asarray(curve, dtype=np.float64)
    h = np.arange(len(c), dtype=np.float64)
    hc, cc = h - h.mean(), c - c.mean()
    slope = (hc @ cc) / (hc @ hc)
    return float(np.abs(cc - slope * hc).max())


def calibrate_profile(params):
    """Coordinate search for the 4-level profile with the straightest transfer curve.

    Levels move on the calibration grid, constrained non-increasing toward
    the sensing node, minimizing the maximum deviation from the best-fit line
    of the h = 0..128 transfer curve.
    Deterministic for fixed params. Warns if nothing beats the uniform 1 V
    profile.
    """
    n_grid = int(round((CAL_V_HI - CAL_V_LO) / CAL_GRID_STEP)) + 1
    grid = [round(CAL_V_LO + i * CAL_GRID_STEP, 10) for i in range(n_grid)]

    def objective(levels):
        return max_line_deviation(transfer_curve(VoltageProfile(tuple(levels)), params))

    levels = [1.0] * N_SEGMENTS
    uniform_obj = objective(levels)
    best_obj = uniform_obj
    for _ in range(CAL_MAX_SWEEPS):
        improved = False
        for idx in range(N_SEGMENTS):
            hi = levels[idx - 1] if idx > 0 else CAL_V_HI
            lo = levels[idx + 1] if idx < N_SEGMENTS - 1 else CAL_V_LO
            best_cand, best_cand_obj = levels[idx], best_obj
            for cand in grid:
                if cand < lo or cand > hi or cand == levels[idx]:
                    continue
                trial = list(levels)
                trial[idx] = cand
                obj = objective(trial)
                if obj < best_cand_obj - 1e-15:
                    best_cand, best_cand_obj = cand, obj
            if best_cand != levels[idx]:
                levels[idx] = best_cand
                best_obj = best_cand_obj
                improved = True
        if not improved:
            break
    if best_obj >= uniform_obj - 1e-15 and uniform_obj > 1e-12:
        warnings.warn(
            "no profile improved on the uniform curve; params look degenerate",
            CalibrationWarning,
        )
    return VoltageProfile(tuple(levels))
