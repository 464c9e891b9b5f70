import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given
from hypothesis import strategies as st

from hdcam import cam
from hdcam.cam import (
    AnalogParams,
    VoltageProfile,
    analog_currents,
    calibrate_profile,
    column_currents,
    max_line_deviation,
    search_analog,
    solve_bank_currents,
    transfer_curve,
)
from hdcam.errors import (
    AlignmentError,
    CalibrationWarning,
    CapacityError,
    DimensionError,
)
from hdcam.hvcore import BANK_COLS, hamming_matrix, random_bits
from hdcam.learner import ClassMemory, Encoded, predict


def _rand(dim, rng):
    """One random bit row."""
    return random_bits(1, dim, rng)[0]


class TestVoltageProfile:
    def test_uniform(self):
        prof = VoltageProfile.uniform(1.0)
        assert prof.levels == (1.0, 1.0, 1.0, 1.0)

    def test_column_voltages_orientation(self):
        prof = VoltageProfile((1.2, 1.1, 1.0, 0.9))
        v = prof.column_voltages()
        assert v[0] == 0.9 and v[31] == 0.9  # nearest segment
        assert v[127] == 1.2  # farthest segment
        assert v.shape == (128,)

    def test_must_be_non_increasing_toward_sensing(self):
        with pytest.raises(ValueError):
            VoltageProfile((0.9, 1.0, 1.0, 1.0))

    def test_range_check(self):
        with pytest.raises(ValueError):
            VoltageProfile((1.3, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            VoltageProfile((1.0, 1.0, 1.0, 0.0))


class TestAnalogParams:
    def test_nominal_current_derived(self):
        p = AnalogParams(g_cell=6.25e-6, gamma=0.6, v_th=0.2)
        assert p.i_cell_nominal == pytest.approx(6.25e-6 * 0.4**2)

    def test_nominal_current_follows_replace(self):
        p = replace(AnalogParams(), g_cell=1e-5)
        assert p.i_cell_nominal == pytest.approx(1e-5 * 0.4**2)

    def test_threshold_must_leave_overdrive(self):
        with pytest.raises(ValueError):
            AnalogParams(gamma=0.5, v_th=0.6)


class TestLoadRows:
    """Rows are a plain (n_rows, dim) matrix: bit 128*k + c is bank k, column c."""

    def test_single_class_dim128(self, rng):
        hv = _rand(128, rng)
        query = hv.copy()
        query[5] ^= 1
        params = AnalogParams()
        current = analog_currents(hv[None], query, VoltageProfile.uniform(1.0), params)
        w = column_currents(VoltageProfile.uniform(1.0).column_voltages(), params)
        assert current.shape == (1, 1)
        assert current[0, 0] == w[5]

    def test_dim2048_uses_16_banks(self, rng):
        hv = _rand(2048, rng)
        query = hv.copy()
        query[127::128] ^= 1  # the far column of every bank
        params = AnalogParams()
        prof = VoltageProfile((1.2, 1.1, 1.0, 0.9))
        current = search_analog(hv[None], query, prof, params)[0]
        w = column_currents(prof.column_voltages(), params)
        assert current == pytest.approx(16 * w[127], rel=1e-12)

    def test_column_mapping(self, rng):
        hv = _rand(256, rng)
        prof = VoltageProfile((1.2, 1.1, 1.0, 0.9))
        params = AnalogParams()
        w = column_currents(prof.column_voltages(), params)
        for bit, column in ((3, 3), (128 + 3, 3), (128 + 100, 100)):
            query = hv.copy()
            query[bit] ^= 1
            assert search_analog(hv[None], query, prof, params)[0] == w[column]

    def test_capacity(self, rng):
        bits = random_bits(129, 128, rng)
        with pytest.raises(CapacityError):
            ClassMemory(list(range(129)), 1 - 2 * bits.astype(np.int16), bits)

    def test_undeployed_memory(self, rng):
        with pytest.raises(ValueError):
            query = _rand(128, rng)[None]
            predict(Encoded(query, 1 - 2 * query.astype(np.int16), [None]),
                    ClassMemory([], np.zeros((0, 128), dtype=np.int16), np.zeros((0, 128), dtype=np.uint8)))


class TestSearchIdeal:
    """Ideal search reads exact Hamming distances off hvcore.hamming_matrix."""

    def test_exact_and_complement(self, rng):
        hv = _rand(512, rng)
        comp = hv ^ 1
        dists = hamming_matrix(hv, np.stack([hv, comp]))
        assert dists.tolist() == [[0, 512]]

    def test_matches_hvcore_hamming(self, rng):
        rows = [_rand(1024, rng) for _ in range(7)]
        query = _rand(1024, rng)
        dists = hamming_matrix(query, np.stack(rows))[0]
        for i, row in enumerate(rows):
            assert dists[i] == np.count_nonzero(query != row)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            hamming_matrix(_rand(128, rng), _rand(256, rng)[None])


def _oracle_bank_current(mism_row, v_cols, params):
    """Independent nodal solve of the per-cell injector equations.

    Each current is solved in units of its zero-drop value g*a^2, so the
    system stays well scaled when r_segment shrinks currents by decades.
    The cells do not load each other, so each is a scalar root, bracketed
    on [0, 2]: the residual is -1 at 0 and at least 1 - ulp at 2. At 1 it is
    non-negative only up to rounding: with r_segment = 0 the root is exactly
    1, and a scalar's overdrive**2 may round one ulp above the array's a**2
    that i_zero_drop holds, so [0, 1] need not bracket it. A bracketing
    solver cannot stall where MINPACK's hybrid method does (r_segment near
    6e8 with one low segment level). Convergence is judged by the size of
    one more Newton step.
    """
    idx = np.flatnonzero(mism_row)
    a = params.gamma * v_cols[idx] - params.v_th
    idx, a = idx[a > 0], a[a > 0]  # no overdrive, no current
    if len(idx) == 0:
        return 0.0
    c = params.r_segment * (idx + 1)
    i_zero_drop = params.g_cell * a**2

    def residual(x, a, c, i_zero_drop):
        overdrive = np.clip(a - c * x * i_zero_drop, 0.0, None)
        return x - params.g_cell * overdrive**2 / i_zero_drop

    x = np.array([
        scipy.optimize.brentq(residual, 0.0, 2.0, args=cell, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        for cell in zip(a, c, i_zero_drop)
    ])
    slope = 1.0 + 2.0 * params.g_cell * c * np.clip(a - c * x * i_zero_drop, 0.0, None)
    assert np.all(np.abs(residual(x, a, c, i_zero_drop) / slope) <= 1e-9 * x)
    return float((x * i_zero_drop).sum())


def _oracle_closed_form(mism_row, v_cols, params):
    """Per-cell closed form: physical root of g*(a - c*i)^2 = i."""
    total = 0.0
    for j in np.flatnonzero(mism_row):
        a = params.gamma * v_cols[j] - params.v_th
        c = params.r_segment * (j + 1)
        roots = np.roots([params.g_cell * c**2, -(2 * params.g_cell * a * c + 1), params.g_cell * a**2])
        phys = [r.real for r in roots if abs(r.imag) < 1e-18 and a - c * r.real >= 0 and r.real >= 0]
        total += min(phys)
    return total


def _reference_currents(rows, queries, profile, params):
    """The column-weighted Hamming distance as two einsums over all bit columns:
    the query's ones against the row's weighted zeros plus its zeros against
    the row's weighted ones, with the 128 column weights tiled over the banks."""
    w = np.tile(column_currents(profile.column_voltages(), params), rows.shape[1] // BANK_COLS)
    return np.einsum("qc,rc->qr", queries, (1 - rows) * w) + np.einsum("qc,rc->qr", 1 - queries, rows * w)


@st.composite
def _analog_case(draw):
    """Valid params and profile, plus one random bank mask."""
    gamma = draw(st.floats(0.3, 1.0))
    v_th = draw(st.floats(0.05, gamma - 0.13))  # keeps the sensing floor well below i_cell_nominal
    r_segment = draw(st.one_of(st.floats(0.0, 1e9), st.floats(-2.0, 9.0).map(lambda e: 10.0**e)))
    params = AnalogParams(r_segment=r_segment, gamma=gamma, v_th=v_th)
    levels = sorted(draw(st.lists(st.floats(0.05, 1.2), min_size=4, max_size=4)), reverse=True)
    mask = np.array(draw(st.lists(st.booleans(), min_size=128, max_size=128)))
    return params, VoltageProfile(levels), mask


class TestSolveMl:
    def test_zero_mismatches(self, rng):
        hv = _rand(256, rng)
        assert analog_currents(hv, hv, VoltageProfile.uniform(1.0), AnalogParams())[0, 0] == 0.0

    def test_single_nearest_mismatch_no_resistance(self):
        params = AnalogParams(r_segment=0.0)
        row = np.zeros(128, dtype=np.uint8)
        query = np.zeros(128, dtype=np.uint8)
        query[0] = 1  # column adjacent to the sensing node
        current = analog_currents(row, query, VoltageProfile.uniform(1.0), params)[0, 0]
        assert current == pytest.approx(params.i_cell_nominal, rel=1e-12)

    def test_full_row_below_ideal_and_nonuniform_increments(self):
        params = AnalogParams()
        currents = transfer_curve(VoltageProfile.uniform(1.0), params)
        assert currents[128] < 128 * params.i_cell_nominal
        increments = np.diff(currents)
        assert increments.std() > 0.01 * params.i_cell_nominal

    def test_matches_scipy_oracle(self, rng):
        params = AnalogParams()
        v_cols = VoltageProfile((1.1, 1.05, 1.0, 0.95)).column_voltages()
        for n_mism in (1, 17, 64, 128):
            mask = np.zeros(128, dtype=bool)
            mask[rng.choice(128, size=n_mism, replace=False)] = True
            mine = solve_bank_currents(mask, v_cols, params)
            oracle = _oracle_bank_current(mask, v_cols, params)
            assert mine == pytest.approx(oracle, rel=1e-6)

    def test_matches_closed_form(self, rng):
        params = AnalogParams()
        v_cols = VoltageProfile.uniform(1.0).column_voltages()
        mask = np.zeros(128, dtype=bool)
        mask[rng.choice(128, size=40, replace=False)] = True
        mine = solve_bank_currents(mask, v_cols, params)
        assert mine == pytest.approx(_oracle_closed_form(mask, v_cols, params), rel=1e-6)

    @pytest.mark.parametrize("r_segment", [1e5, 1e9])
    def test_extreme_resistance_matches_oracles(self, r_segment):
        params = AnalogParams(r_segment=r_segment)
        v_cols = VoltageProfile.uniform(1.0).column_voltages()
        mask = np.ones(128, dtype=bool)
        mine = solve_bank_currents(mask, v_cols, params)
        assert mine > 0
        assert mine == pytest.approx(_oracle_bank_current(mask, v_cols, params), rel=1e-6)
        assert mine == pytest.approx(_oracle_closed_form(mask, v_cols, params), rel=1e-6)

    def test_bank_additivity(self, rng):
        params = AnalogParams()
        prof = VoltageProfile.uniform(1.0)
        row, query = _rand(512, rng), _rand(512, rng)
        total = analog_currents(row, query, prof, params)[0, 0]
        mism = (row != query).reshape(4, 128)
        bank_currents = solve_bank_currents(mism, prof.column_voltages(), params)
        assert bank_currents.shape == (4,)
        assert total == pytest.approx(float(bank_currents.sum()), rel=1e-12)
        per_bank = [
            analog_currents(row[b * 128 : (b + 1) * 128], query[b * 128 : (b + 1) * 128], prof, params)[0, 0]
            for b in range(4)
        ]
        assert total == pytest.approx(sum(per_bank), rel=1e-12)

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            analog_currents(_rand(256, rng), _rand(128, rng), VoltageProfile.uniform(), AnalogParams())

    @pytest.mark.parametrize("width", [0, 100, 200, 2176])
    def test_unaligned_width(self, width):
        bits = np.zeros((2, width), dtype=np.uint8)
        with pytest.raises(AlignmentError):
            analog_currents(bits, bits, VoltageProfile.uniform(), AnalogParams())

    def test_column_weights_reproduce_ideal_at_r0(self):
        params = AnalogParams(r_segment=0.0)
        w = column_currents(VoltageProfile.uniform(1.0).column_voltages(), params)
        assert np.array_equal(w, np.full(128, params.i_cell_nominal))

    @given(_analog_case())
    @example((  # stalled MINPACK's hybrid solve in an earlier oracle
        AnalogParams(r_segment=633272467.0, v_th=0.05, gamma=0.5),
        VoltageProfile((1.0, 1.0, 1.0, 0.10125608699372328)),
        np.isin(np.arange(128), [0, 3, 6, 8, *range(12, 18), 29, 30, 31, *range(90, 128)]),
    ))
    def test_kernel_matches_scipy_oracle(self, case):
        params, profile, mask = case
        v_cols = profile.column_voltages()
        mine = solve_bank_currents(mask, v_cols, params)
        assert mine == pytest.approx(_oracle_bank_current(mask, v_cols, params), rel=1e-6, abs=1e-20)

    @given(_analog_case(), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_search_paths_agree_with_floor(self, case, n_rows, n_banks, seed):
        # The cam reports raw line currents; the sensing floor is applied by the LTA only.
        params, profile, _ = case
        gen = np.random.default_rng(seed)
        rows = gen.integers(0, 2, (n_rows, 128 * n_banks), dtype=np.uint8)
        query = gen.integers(0, 2, 128 * n_banks, dtype=np.uint8)
        via_search = search_analog(rows, query, profile, params)
        via_pairs = analog_currents(rows, query, profile, params)[0]
        mism = (rows != query).reshape(n_rows, n_banks, 128)
        via_banks = solve_bank_currents(mism, profile.column_voltages(), params).sum(axis=-1)
        assert via_search.shape == (n_rows,)
        assert np.array_equal(via_search, via_pairs)
        assert via_search == pytest.approx(via_banks, rel=1e-12)

    @given(_analog_case(), st.integers(1, 16), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_matches_reference_currents(self, case, n_banks, n_rows, n_queries, seed):
        params, profile, _ = case
        gen = np.random.default_rng(seed)
        rows = gen.integers(0, 2, (n_rows, 128 * n_banks), dtype=np.uint8)
        queries = gen.integers(0, 2, (n_queries, 128 * n_banks), dtype=np.uint8)
        expected = _reference_currents(rows, queries, profile, params)
        assert analog_currents(rows, queries, profile, params) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n_rows, n_queries, dim", [(32, 200, 2048), (1, 1, 128), (5, 7, 1152)])
    def test_column_mismatches_sum_to_hamming(self, rng, n_rows, n_queries, dim):
        rows = random_bits(n_rows, dim, rng)
        queries = random_bits(n_queries, dim, rng)
        counts = cam._column_mismatches(rows, queries)
        assert counts.shape == (n_queries, n_rows, BANK_COLS)
        assert np.array_equal(counts.sum(axis=2, dtype=np.int64), hamming_matrix(queries, rows))

    @pytest.mark.parametrize("n_rows, dim", [(8, 2048), (3, 256), (5, 128)])
    def test_block_boundaries_match_per_query(self, rng, n_rows, dim):
        # a query's currents in a 23-query batch are exactly its solo currents
        rows = rng.integers(0, 2, (n_rows, dim), dtype=np.uint8)
        queries = rng.integers(0, 2, (23, dim), dtype=np.uint8)
        prof, params = VoltageProfile((1.2, 1.1, 1.0, 0.9)), AnalogParams()
        batched = analog_currents(rows, queries, prof, params)
        for q, query in enumerate(queries):
            assert np.array_equal(batched[q], search_analog(rows, query, prof, params))


class TestSearchAnalog:
    def test_r0_perfectly_linear(self, rng):
        # at r_segment = 0 every column weighs i_cell_nominal, so the currents
        # are the one Hamming kernel scaled
        params = AnalogParams(r_segment=0.0)
        rows = random_bits(5, 512, rng)
        queries = random_bits(7, 512, rng)
        currents = analog_currents(rows, queries, VoltageProfile.uniform(1.0), params)
        expected = params.i_cell_nominal * hamming_matrix(queries, rows)
        assert currents.shape == (7, 5)
        assert currents == pytest.approx(expected, rel=1e-12)

    def test_r0_argmin_matches_ideal(self, rng):
        params = AnalogParams(r_segment=0.0)
        for trial in range(5):
            rows = np.stack([_rand(512, rng) for _ in range(8)])
            query = _rand(512, rng)
            dists = hamming_matrix(query, rows)[0]
            if len(set(dists.tolist())) < len(dists):
                continue
            currents = search_analog(rows, query, VoltageProfile.uniform(1.0), params)
            assert int(np.argmin(currents)) == int(np.argmin(dists))

    def test_deterministic(self, rng):
        params = AnalogParams()
        rows = np.stack([_rand(256, rng) for _ in range(4)])
        query = _rand(256, rng)
        prof = VoltageProfile.uniform(1.0)
        r1 = search_analog(rows, query, prof, params)
        r2 = search_analog(rows, query, prof, params)
        assert np.array_equal(r1, r2)


class TestTransferCurve:
    def test_starts_at_zero(self):
        curve = transfer_curve(VoltageProfile.uniform(1.0), AnalogParams())
        assert curve.shape == (129,) and curve[0] == 0.0

    @pytest.mark.parametrize("order", ["farthest-first", "nearest-first", "random-seeded"])
    def test_strictly_increasing(self, order):
        # the curve rises with every added mismatch, whichever columns go first;
        # random-seeded is transfer_curve's own order, the positional orders are
        # solved directly from prefix masks
        prof, params = VoltageProfile.uniform(1.0), AnalogParams()
        if order == "random-seeded":
            currents = transfer_curve(prof, params)
        else:
            cols = np.arange(BANK_COLS) if order == "nearest-first" else np.arange(BANK_COLS)[::-1]
            masks = np.zeros((BANK_COLS + 1, BANK_COLS), dtype=bool)
            for h in range(1, BANK_COLS + 1):
                masks[h, cols[:h]] = True
            currents = solve_bank_currents(masks, prof.column_voltages(), params)
        assert currents.shape == (129,)
        assert np.all(np.diff(currents) > 0)

    def test_monotone_under_prefix_extension(self):
        # point h + 1 adds one mismatching column to the h columns of point h
        params = AnalogParams()
        prof = VoltageProfile((1.1, 1.05, 1.0, 0.95))
        curve = transfer_curve(prof, params)
        weights = column_currents(prof.column_voltages(), params)
        increments = np.diff(curve)
        assert np.all(increments >= 0)
        # every column mismatches exactly once over h = 1..128
        assert np.allclose(np.sort(increments), np.sort(weights), rtol=1e-12, atol=0)


def _scalar_objective(levels, params):
    """The calibration objective of one level vector, as the per-candidate search
    computed it: a concatenated 1-D transfer curve and its 1-D line fit."""
    weights = column_currents(VoltageProfile(levels).column_voltages(), params)[cam._placement_order()]
    c = np.concatenate(([0.0], np.cumsum(weights)))
    h = np.arange(len(c), dtype=np.float64)
    hc, cc = h - h.mean(), c - c.mean()
    slope = (hc @ cc) / (hc @ hc)
    return float(np.abs(cc - slope * hc).max())


def _calibrate_reference(params):
    """The coordinate search scoring one candidate at a time with _scalar_objective."""
    n_grid = int(round((cam.CAL_V_HI - cam.CAL_V_LO) / cam.CAL_GRID_STEP)) + 1
    grid = [round(cam.CAL_V_LO + i * cam.CAL_GRID_STEP, 10) for i in range(n_grid)]
    levels = [1.0] * 4
    best_obj = _scalar_objective(tuple(levels), params)
    for _ in range(cam.CAL_MAX_SWEEPS):
        improved = False
        for idx in range(4):
            hi = levels[idx - 1] if idx > 0 else cam.CAL_V_HI
            lo = levels[idx + 1] if idx < 3 else cam.CAL_V_LO
            best_cand, best_cand_obj = levels[idx], best_obj
            for cand in grid:
                if cand < lo or cand > hi or cand == levels[idx]:
                    continue
                trial = list(levels)
                trial[idx] = cand
                obj = _scalar_objective(tuple(trial), params)
                if obj < best_cand_obj - 1e-15:
                    best_cand, best_cand_obj = cand, obj
            if best_cand != levels[idx]:
                levels[idx] = best_cand
                best_obj = best_cand_obj
                improved = True
        if not improved:
            break
    return tuple(levels)


@st.composite
def _analog_params(draw):
    """Valid AnalogParams with r_segment from 0 to 1e9 ohm."""
    r_segment = draw(st.one_of(st.just(0.0), st.floats(0, 1e9), st.floats(-3, 9).map(lambda e: 10.0**e)))
    gamma = draw(st.floats(0.25, 1.0))
    return AnalogParams(r_segment=r_segment, g_cell=draw(st.floats(-7, -4).map(lambda e: 10.0**e)),
                        v_th=gamma * draw(st.floats(0.01, 0.95)), gamma=gamma)


# Non-increasing level vectors: on the 0.01 V calibration grid, or anywhere in (0, 1.2].
LEVELS = st.one_of(
    st.lists(st.integers(80, 120).map(lambda i: round(0.8 + (i - 80) * 0.01, 10)), min_size=4, max_size=4),
    st.lists(st.floats(0.05, 1.2), min_size=4, max_size=4),
).map(lambda v: tuple(sorted(v, reverse=True)))


class TestCalibration:
    @given(_analog_params(), st.lists(LEVELS, min_size=1, max_size=41))
    def test_batched_objectives_equal_scalar(self, params, level_rows):
        objectives = cam._deviations(cam._curves(level_rows, params))
        assert objectives.tolist() == [_scalar_objective(v, params) for v in level_rows]
        assert objectives.tolist() == [
            max_line_deviation(transfer_curve(VoltageProfile(v), params)) for v in level_rows
        ]

    @given(_analog_params())
    @example(AnalogParams())
    @example(AnalogParams(r_segment=0.0))
    @example(AnalogParams(r_segment=1e5))
    # Here a candidate beats the best by less than 1e-15 and must not be taken.
    @example(AnalogParams(r_segment=412205971.6116135, g_cell=8.781831910631324e-05,
                          v_th=0.21451989145091727, gamma=0.26102972872402697))
    def test_levels_equal_per_candidate_search(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            assert calibrate_profile(params).levels == _calibrate_reference(params)

    def test_r0_returns_all_equal_levels(self):
        prof = calibrate_profile(AnalogParams(r_segment=0.0))
        assert len(set(prof.levels)) == 1

    def test_default_params_decreasing_toward_sensing(self):
        prof = calibrate_profile(AnalogParams())
        assert prof.levels[0] > prof.levels[-1]
        assert all(a >= b for a, b in zip(prof.levels, prof.levels[1:]))

    def test_improvement_at_least_3x(self):
        params = AnalogParams()
        dev_u = max_line_deviation(transfer_curve(VoltageProfile.uniform(1.0), params))
        prof = calibrate_profile(params)
        dev_c = max_line_deviation(transfer_curve(prof, params))
        assert dev_u / dev_c >= 3.0

    def test_calibrated_per_mismatch_delta_bounded(self):
        params = AnalogParams()
        prof = calibrate_profile(params)
        currents = transfer_curve(prof, params)
        h = np.arange(129, dtype=float)
        iu = np.triu_indices(129, 1)
        slopes = (currents[None, :] - currents[:, None])[iu] / (h[None, :] - h[:, None])[iu]
        assert slopes.min() >= 0.5 * params.i_cell_nominal

    def test_degenerate_params_warn(self):
        # drop real but far below what one grid step swings: nothing helps
        params = AnalogParams(r_segment=0.05)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calibrate_profile(params)
        assert any(issubclass(w.category, CalibrationWarning) for w in caught)

    def test_deterministic(self):
        p1 = calibrate_profile(AnalogParams())
        p2 = calibrate_profile(AnalogParams())
        assert p1.levels == p2.levels
