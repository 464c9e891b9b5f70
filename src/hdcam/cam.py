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
one 128-entry weight vector per bank: a column-weighted Hamming distance.
Far cells lose gate overdrive and weigh less, bending the current-vs-distance
curve. Search-voltage scaling counteracts this: the 128 columns split into
four 32-column segments, each driven at its own level, higher levels farther
from the sensing node.

MTJ resistances (parallel 1.25 MOhm, anti-parallel 3.44 MOhm) are recorded
here because they justify treating per-cell search energy as negligible;
they play no role in the ladder model.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, CalibrationWarning, CapacityError, DimensionError
from .hvcore import BANK_COLS, MAX_BANKS

MTJ_R_PARALLEL_OHM = 1.25e6
MTJ_R_ANTIPARALLEL_OHM = 3.44e6

N_SEGMENTS = 4
SEGMENT_COLS = BANK_COLS // N_SEGMENTS

# Fixed shuffle seed of the "random-seeded" mismatch placement rule.
DEFAULT_PLACEMENT_SEED = 12021

PLACEMENT_RULES = ("nearest-first", "farthest-first", "random-seeded")


@dataclass
class AnalogParams:
    """Electrical constants of the match-line model.

    i_cell_nominal is the per-mismatch current at zero IR drop under a 1 V
    search level; when omitted it is derived from g_cell, gamma and v_th.
    """

    r_segment: float = 1000.0
    g_cell: float = 6.25e-6
    v_th: float = 0.2
    gamma: float = 0.6
    i_floor: float = 1e-9
    i_cell_nominal: float = None

    def __post_init__(self):
        for name in ("g_cell", "v_th", "gamma", "i_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.r_segment < 0:
            raise ValueError("r_segment must be non-negative")
        overdrive = self.gamma * 1.0 - self.v_th
        if overdrive <= 0:
            raise ValueError("v_th leaves no overdrive at a 1 V search level")
        if self.i_cell_nominal is None:
            self.i_cell_nominal = self.g_cell * overdrive**2
        if self.i_cell_nominal <= 0:
            raise ValueError("i_cell_nominal must be positive")
        if self.i_floor * 100 > self.i_cell_nominal:
            raise ValueError("i_floor must be well below i_cell_nominal")


@dataclass
class VoltageProfile:
    """Per-segment search levels, listed from the far segment toward the sensing node."""

    levels: tuple
    base_voltage: float = 1.0

    def __post_init__(self):
        self.levels = tuple(float(v) for v in self.levels)
        if len(self.levels) != N_SEGMENTS:
            raise ValueError(f"profile needs {N_SEGMENTS} levels")
        for v in self.levels + (self.base_voltage,):
            if not 0 < v <= 1.2:
                raise ValueError("levels must lie in (0, 1.2] V")
        for far, near in zip(self.levels, self.levels[1:]):
            if far < near - 1e-12:
                raise ValueError("levels must be non-increasing toward the sensing node")

    @classmethod
    def uniform(cls, v=1.0):
        return cls((v,) * N_SEGMENTS, base_voltage=v)

    def column_voltages(self):
        """Per-column level, indexed by distance from the sensing node (col 0 nearest)."""
        return np.repeat(np.asarray(self.levels[::-1], dtype=np.float64), SEGMENT_COLS)


@dataclass
class BankLayout:
    """Deployed class rows placed across the CAM banks.

    Bank k, row r, column c stores bit 128*k + c of the class vector in row r.
    """

    banks: np.ndarray
    active_banks: int
    row_map: dict
    labels: list

    @property
    def n_rows(self):
        return len(self.labels)

    @property
    def dim(self):
        return self.active_banks * BANK_COLS


def load_rows(cm):
    """Place the deployed class vectors of a ClassMemory into bank storage."""
    if not cm.deployed:
        raise ValueError("class memory has no deployed binary vectors")
    if len(cm.deployed) > BANK_COLS:
        raise CapacityError(f"{len(cm.deployed)} classes exceed the {BANK_COLS} rows per bank")
    active = cm.dim // BANK_COLS
    banks = np.zeros((MAX_BANKS, BANK_COLS, BANK_COLS), dtype=np.uint8)
    labels = []
    row_map = {}
    for row, (label, hv) in enumerate(cm.deployed.items()):
        banks[:active, row, :] = hv.bits.reshape(active, BANK_COLS)
        row_map[label] = row
        labels.append(label)
    return BankLayout(banks, active, row_map, labels)


def search_ideal(layout, query):
    """Exact Hamming distance of the query against every occupied row."""
    if query.dim != layout.dim:
        raise DimensionError(f"query dim {query.dim} does not match layout dim {layout.dim}")
    qb = query.bits.reshape(layout.active_banks, BANK_COLS)
    stored = layout.banks[: layout.active_banks, : layout.n_rows, :]
    mism = stored != qb[:, None, :]
    return mism.sum(axis=(0, 2)).astype(np.int64)


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
    return np.sum(np.asarray(mismatch, dtype=bool) * column_currents(v_cols, params), axis=-1)


def _sensed(totals, params):
    """Line totals as the sensing block reads them: anything under the floor is zero."""
    return np.where(totals < params.i_floor, 0.0, totals)


def _row_currents(mismatch, profile, params):
    """Sensed current per row of a (..., width) mismatch mask; banks are weighted
    independently and summed."""
    width = mismatch.shape[-1]
    if width == 0 or width % BANK_COLS:
        raise AlignmentError("bit length must be a positive multiple of 128")
    banks = mismatch.reshape(*mismatch.shape[:-1], width // BANK_COLS, BANK_COLS)
    bank_totals = solve_bank_currents(banks, profile.column_voltages(), params)
    return _sensed(bank_totals.sum(axis=-1), params)


def analog_currents(rows_bits, queries_bits, profile, params):
    """Sensed currents of every (query, row) pair; shape (n_queries, n_rows).

    rows_bits and queries_bits are (n, dim) uint8 matrices.
    """
    rows = np.atleast_2d(rows_bits)
    queries = np.atleast_2d(queries_bits)
    if rows.shape[1] != queries.shape[1]:
        raise DimensionError("row and query widths differ")
    return _row_currents(queries[:, None, :] != rows[None, :, :], profile, params)


def search_analog(layout, query, profile, params):
    """Sensed match-line current of the query against every occupied row, (n_rows,)."""
    if query.dim != layout.dim:
        raise DimensionError(f"query dim {query.dim} does not match layout dim {layout.dim}")
    active = layout.active_banks
    qb = query.bits.reshape(active, BANK_COLS)
    stored = layout.banks[:active, : layout.n_rows, :]
    mism = np.moveaxis(stored != qb[:, None, :], 0, 1).reshape(layout.n_rows, layout.dim)
    return _row_currents(mism, profile, params)


def _placement_order(rule, seed):
    if rule == "nearest-first":
        return np.arange(BANK_COLS)
    if rule == "farthest-first":
        return np.arange(BANK_COLS - 1, -1, -1)
    if rule == "random-seeded":
        return np.random.default_rng(seed).permutation(BANK_COLS)
    raise ValueError(f"placement rule must be one of {PLACEMENT_RULES}, got {rule!r}")


def transfer_curve(profile, params, placement_rule="random-seeded", placement_seed=DEFAULT_PLACEMENT_SEED):
    """Per-bank (hamming, current) curve for h = 0..128 mismatches.

    Mismatch positions for h are the first h entries of the placement order,
    so successive points share a placement prefix.
    """
    order = _placement_order(placement_rule, placement_seed)
    weights = column_currents(profile.column_voltages(), params)[order]
    totals = _sensed(np.concatenate(([0.0], np.cumsum(weights))), params)
    return list(enumerate(totals.tolist()))


def max_line_deviation(curve):
    """Largest absolute deviation of a transfer curve from its least-squares line."""
    h, c = np.asarray(curve, dtype=np.float64).T
    hc, cc = h - h.mean(), c - c.mean()
    slope = (hc @ cc) / (hc @ hc)
    return float(np.abs(cc - slope * hc).max())


def calibrate_profile(
    params,
    metric="max_abs_deviation",
    grid_step=0.01,
    v_lo=0.8,
    v_hi=1.2,
    placement_rule="random-seeded",
    placement_seed=DEFAULT_PLACEMENT_SEED,
    max_sweeps=25,
):
    """Coordinate search for the 4-level profile with the straightest transfer curve.

    Levels move on a grid of grid_step volts inside [v_lo, v_hi], constrained
    non-increasing toward the sensing node, minimizing the maximum deviation
    from the best-fit line of the h = 0..128 curve under the given placement
    rule. Deterministic for fixed params. Warns if nothing beats the uniform
    1 V profile.
    """
    if metric != "max_abs_deviation":
        raise ValueError(f"unsupported linearity metric: {metric!r}")
    n_grid = int(round((v_hi - v_lo) / grid_step)) + 1
    grid = [round(v_lo + i * grid_step, 10) for i in range(n_grid)]

    def objective(levels):
        prof = VoltageProfile(tuple(levels))
        return max_line_deviation(transfer_curve(prof, params, placement_rule, placement_seed))

    levels = [1.0] * N_SEGMENTS
    uniform_obj = objective(levels)
    best_obj = uniform_obj
    for _ in range(max_sweeps):
        improved = False
        for idx in range(N_SEGMENTS):
            hi = levels[idx - 1] if idx > 0 else v_hi
            lo = levels[idx + 1] if idx < N_SEGMENTS - 1 else v_lo
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
