import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdcam.cost import OP_KINDS, CostLedger, CostTable, OpCost, charge_to, ratios_vs_cmos
from hdcam.errors import ConfigError


class TestDefaults:
    def test_reference_constants(self):
        t = CostTable()
        assert t.ops["addition"] == OpCost(0.462, 41.08, 385, 61.9, 883.9)
        assert t.ops["permutation"] == OpCost(15.36, 0.752, 193, 4.66, 415.66)
        assert t.ops["multiplication"] == OpCost(1.548, 569.0, 385, 3.235, 828.47)
        assert t.ops["search"] == OpCost(0.985, 14.65, 1922, 29.65, 4139.7)
        assert t.mem_read_energy_nj == 0.411
        assert t.cmos_cycle_ns == 0.5
        assert t.reference_dim == 2048

    def test_missing_op_rejected(self):
        with pytest.raises(ConfigError):
            CostTable(ops={"addition": OpCost(1, 1, 1, 1, 1)})

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            OpCost(0.0, 1, 1, 1, 1)


class TestRatios:
    def test_net_energy_ratios(self):
        r = ratios_vs_cmos()
        assert r["addition"]["net_energy_ratio"] == pytest.approx(883.9 / 41.08)
        assert r["addition"]["net_energy_ratio"] == pytest.approx(21.5, rel=0.005)
        assert r["permutation"]["net_energy_ratio"] == pytest.approx(552.74, rel=0.005)
        assert r["multiplication"]["net_energy_ratio"] == pytest.approx(1.45, rel=0.005)
        assert r["search"]["net_energy_ratio"] == pytest.approx(282.57, rel=0.005)

    def test_direct_energy_ratios(self):
        r = ratios_vs_cmos()
        assert r["addition"]["energy_ratio"] == pytest.approx(1.51, rel=0.01)
        assert r["permutation"]["energy_ratio"] == pytest.approx(6.19, rel=0.01)
        assert r["search"]["energy_ratio"] == pytest.approx(2.02, rel=0.01)


class TestTally:
    """Charges accumulated on a ledger with CostLedger.charge."""

    def test_one_addition_at_reference_dim(self):
        ledger = CostLedger(2048).charge("addition")
        assert ledger.hydra_energy_pj == pytest.approx(41.08)

    def test_half_width_half_energy(self):
        ledger = CostLedger(1024).charge("addition", 1)
        assert ledger.hydra_energy_pj == pytest.approx(20.54)

    def test_latency_does_not_scale_with_width(self):
        ledger = CostLedger(1024).charge("addition", 1)
        assert ledger.hydra_latency_ns == pytest.approx(0.462)

    def test_zero_count_is_identity(self):
        ledger = CostLedger(2048).charge("search", 0)
        assert ledger.counts == {}

    def test_original_ledger_untouched(self):
        base = CostLedger(2048)
        base.merge(CostLedger(2048).charge("search", 3))
        assert base.counts.get("search", 0) == 0

    def test_unknown_op(self):
        with pytest.raises(ConfigError):
            CostLedger(2048).charge("division", 1)

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            CostLedger(2048).merge(CostLedger(1024).charge("search"))

    def test_unaligned_dim(self):
        with pytest.raises(Exception):
            CostLedger(1000)

    def test_charge_to_skips_missing_ledger(self):
        charge_to(None, "search", 3)
        ledger = CostLedger(2048)
        charge_to(ledger, "search", 3)
        charge_to(ledger, "search", 0)
        assert ledger.counts == {"search": 3}


class TestScalingInvariant:
    def test_exact_power_of_two_scaling(self):
        counts = {"addition": 13, "permutation": 7, "multiplication": 5, "search": 11}
        big = CostLedger(2048, counts=dict(counts))
        for dim, factor in ((1024, 0.5), (512, 0.25)):
            small = CostLedger(dim, counts=dict(counts))
            assert small.hydra_energy_pj == big.hydra_energy_pj * factor
            assert small.hydra_latency_ns == big.hydra_latency_ns
            assert small.cmos_net_energy_pj == big.cmos_net_energy_pj


class TestMerge:
    @given(
        a=st.dictionaries(st.sampled_from(OP_KINDS), st.integers(0, 50)),
        b=st.dictionaries(st.sampled_from(OP_KINDS), st.integers(0, 50)),
        c=st.dictionaries(st.sampled_from(OP_KINDS), st.integers(0, 50)),
    )
    def test_associative_commutative(self, a, b, c):
        la, lb, lc = (CostLedger(2048, counts=dict(d)) for d in (a, b, c))
        assert la.merge(lb).counts == lb.merge(la).counts
        assert la.merge(lb).merge(lc).counts == la.merge(lb.merge(lc)).counts

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            CostLedger(2048).merge(CostLedger(1024))


class TestReport:
    """The ledger's derived totals are the cost report."""

    def test_empty_ledger_all_zero(self):
        ledger = CostLedger(2048)
        assert ledger.hydra_energy_pj == 0
        assert ledger.hydra_latency_ns == 0
        assert ledger.cmos_net_energy_pj == 0

    def test_one_of_each_sums(self):
        ledger = CostLedger(2048)
        for op in OP_KINDS:
            ledger.charge(op)
        assert ledger.hydra_energy_pj == pytest.approx(41.08 + 0.752 + 569 + 14.65)
        assert ledger.hydra_latency_ns == pytest.approx(0.462 + 15.36 + 1.548 + 0.985)
        assert ledger.cmos_net_energy_pj == pytest.approx(883.9 + 415.66 + 828.47 + 4139.7)
