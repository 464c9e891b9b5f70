"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale synthetic datasets stand in for the benchmark suites; the
criteria check relative effects (ratios, gaps, orderings) rather than
absolute benchmark accuracies.
"""

import numpy as np

from hdcam.cam import AnalogParams, VoltageProfile, calibrate_profile, max_line_deviation, transfer_curve
from hdcam.cost import CostLedger, ratios_vs_cmos
from hdcam.datasets import make_hv_blobs, purity
from hdcam.experiments import run_classify, synthesize_dataset
from hdcam.hvcore import Rng
from hdcam.learner import ClusterSpec, cluster
from hdcam.lta import SensingSpec, argmin_serial

import studies

SEEDS = (0, 1, 2, 3, 4)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _mean(xs):
    return sum(xs) / len(xs)


def test_cost_table_ratio_reproduction():
    r = ratios_vs_cmos()
    net_expected = {
        "addition": 21.5,
        "permutation": 552.74,
        "multiplication": 1.45,
        "search": 282.57,
    }
    net_ok = all(
        abs(r[op]["net_energy_ratio"] - v) / v <= 0.005 for op, v in net_expected.items()
    )
    direct_expected = {"addition": 1.51, "permutation": 6.19, "search": 2.02}
    direct_ok = all(
        abs(r[op]["energy_ratio"] - v) / v <= 0.01 for op, v in direct_expected.items()
    )
    detail = ", ".join(f"{op} {r[op]['net_energy_ratio']:.2f}x" for op in net_expected)
    _report("cost-table ratio reproduction", net_ok and direct_ok, detail)


def test_binary_vs_multibit_gap():
    details = []
    ok = True
    for task in ("records", "languages"):
        accs = studies.binary_vs_multibit(task, SEEDS)
        gap = _mean([m - b for b, m in zip(accs["binary"], accs["multibit"])])
        details.append(f"{task} gap {gap * 100:+.2f} pts")
        ok = ok and gap <= 0.05
    _report("binary-vs-multibit accuracy gap <= 5 pts", ok, ", ".join(details))


def test_bit_drop_permutation_fidelity():
    widths = (8, 16)
    accs = studies.shift_vs_drop(SEEDS, widths)
    details = []
    ok = True
    for width in widths:
        gap = _mean([d - s for s, d in zip(accs["shift"], accs[f"drop{width}"])])
        details.append(f"width {width}: {gap * 100:+.2f} pts")
        ok = ok and abs(gap) <= 0.02
    _report("bit-drop permutation within 2 pts of shift", ok, ", ".join(details))


def test_voltage_scaling_recovery():
    accs = studies.voltage_backends(SEEDS)
    ideal, cal, uni = (_mean(accs[k]) for k in ("ideal", "calibrated", "uniform"))
    close_to_ideal = abs(ideal - cal) <= 0.01
    uniform_lower = uni < cal
    _report(
        "voltage-scaling accuracy recovery",
        close_to_ideal and uniform_lower,
        f"ideal {ideal:.4f}, calibrated {cal:.4f}, uniform {uni:.4f}",
    )


def test_linearity_improvement():
    params = AnalogParams()
    dev_u = max_line_deviation(transfer_curve(VoltageProfile.uniform(1.0), params))
    prof = calibrate_profile(params)
    dev_c = max_line_deviation(transfer_curve(prof, params))
    ratio = dev_u / dev_c
    _report(
        "calibration linearity improvement >= 3x",
        ratio >= 3.0,
        f"uniform {dev_u:.3e} A vs calibrated {dev_c:.3e} A, {ratio:.2f}x",
    )


def test_lta_oracle_equivalence():
    spec = SensingSpec()
    gen = np.random.default_rng(2024)
    matches = 0
    for trial in range(1000):
        n = int(gen.integers(2, 65))
        deltas = spec.resolution * 1.05 + gen.exponential(0.5e-6, size=n)
        currents = np.cumsum(deltas)
        gen.shuffle(currents)
        decision = argmin_serial(currents, spec, Rng(trial))
        matches += decision.winner == int(np.argmin(currents))
    flagged = 0
    cases = 100
    for trial in range(cases):
        n = int(gen.integers(4, 9))
        currents = 2e-6 + np.cumsum(gen.uniform(0.3e-6, 1e-6, size=n))
        currents[0] = 1.0e-6
        currents[1] = 1.0e-6 + 0.5 * spec.resolution  # planted sub-resolution pair at the minimum
        decision = argmin_serial(currents, spec, Rng(trial))
        flagged += decision.ambiguous_flags
    ok = matches == 1000 and flagged == cases
    _report(
        "LTA oracle equivalence and ambiguity flagging",
        ok,
        f"{matches}/1000 separated argmins exact, {flagged}/{cases} planted batches flagged",
    )


def test_clustering_recovery():
    details = []
    ok = True
    for K in (2, 3):
        for seed in SEEDS:
            ds = make_hv_blobs(K, 20, 2048, Rng(1000 + seed))
            state = cluster(ds.samples, ClusterSpec(K, 8, 20), Rng(seed))
            p = purity(state.assignments, ds.labels)
            mono = all(b <= a for a, b in zip(state.objective_history, state.objective_history[1:]))
            converged = state.epoch < 20
            if not (p >= 0.95 and mono and converged):
                ok = False
                details.append(f"K={K} seed={seed} purity={p:.2f} epochs={state.epoch} mono={mono}")
    _report("clustering blob recovery", ok, details[0] if details else "purity >= 0.95 on all 10 runs")


def test_dimension_scaling():
    counts = {"addition": 9, "permutation": 4, "multiplication": 9, "search": 1}
    big = CostLedger(2048, counts=dict(counts))
    small = CostLedger(512, counts=dict(counts))
    exact = small.hydra_energy_pj == big.hydra_energy_pj * (512 / 2048)
    cfg2048 = studies.preset("records", 0)
    cfg512 = cfg2048.with_overrides(dim=512)
    ds = synthesize_dataset(cfg2048)
    acc512 = run_classify(cfg512, ds).meta["accuracy"]
    acc2048 = run_classify(cfg2048, ds).meta["accuracy"]
    within = abs(acc512 - acc2048) <= 0.10
    _report(
        "dimension scaling (exact energy, accuracy within 10 pts)",
        exact and within,
        f"energy exact={exact}, accuracy 512={acc512:.4f} vs 2048={acc2048:.4f}",
    )
