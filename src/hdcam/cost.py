"""Operation-level energy and latency accounting.

Defaults reproduce a 7 nm characterization of the SOT-CAM macro next to an
all-CMOS RTL baseline (cycle time 0.5 ns). The CMOS "net" energy folds in the
memory-to-compute transfers an off-memory implementation needs; one 2048-bit
vector read costs 0.411 nJ.

Charging granularity: "addition" is one whole-accumulator update (one adder
pass, subtractions charged the same), "multiplication", "permutation" and
"search" are one whole-vector operation each. In-array energy scales with
the active bank count (dim / 2048); latency does not, because banks operate
in parallel. CMOS charges are kept at reference width.
"""

from dataclasses import dataclass, field

from .errors import ConfigError
from .hvcore import check_alignment

OP_KINDS = ("addition", "permutation", "multiplication", "search")


@dataclass(frozen=True)
class OpCost:
    hydra_latency_ns: float
    hydra_energy_pj: float
    cmos_cycles: int
    cmos_energy_pj: float
    cmos_net_energy_pj: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")


def _default_ops():
    return {
        "addition": OpCost(0.462, 41.08, 385, 61.9, 883.9),
        "permutation": OpCost(15.36, 0.752, 193, 4.66, 415.66),
        "multiplication": OpCost(1.548, 569.0, 385, 3.235, 828.47),
        "search": OpCost(0.985, 14.65, 1922, 29.65, 4139.7),
    }


@dataclass
class CostTable:
    """Per-operation constants plus the shared scaling parameters."""

    ops: dict = field(default_factory=_default_ops)
    mem_read_energy_nj: float = 0.411
    cmos_cycle_ns: float = 0.5
    reference_dim: int = 2048

    def __post_init__(self):
        missing = [op for op in OP_KINDS if op not in self.ops]
        if missing:
            raise ConfigError(f"cost table is missing ops: {missing}")
        if not min(self.mem_read_energy_nj, self.cmos_cycle_ns, self.reference_dim) > 0:
            raise ConfigError("table scaling constants must be positive")


def ratios_vs_cmos(table=None):
    """Per-op CMOS / in-array energy ratios (direct and net)."""
    table = table or CostTable()
    out = {}
    for op in OP_KINDS:
        c = table.ops[op]
        out[op] = {
            "energy_ratio": c.cmos_energy_pj / c.hydra_energy_pj,
            "net_energy_ratio": c.cmos_net_energy_pj / c.hydra_energy_pj,
        }
    return out


@dataclass
class CostLedger:
    """Operation counts for one vector width; costs are derived, so merging
    ledgers and scaling with width stay exact."""

    active_dim: int
    table: CostTable = field(default_factory=CostTable)
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        check_alignment(self.active_dim)
        for op in self.counts:
            if op not in self.table.ops:
                raise ConfigError(f"unknown op kind: {op!r}")

    def charge(self, op_kind, count=1):
        if op_kind not in self.table.ops:
            raise ConfigError(f"unknown op kind: {op_kind!r}")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count:
            self.counts[op_kind] = self.counts.get(op_kind, 0) + count
        return self

    def merge(self, other):
        if self.active_dim != other.active_dim:
            raise ConfigError("cannot merge ledgers with different active dims")
        merged = dict(self.counts)
        for op, n in other.counts.items():
            merged[op] = merged.get(op, 0) + n
        return CostLedger(self.active_dim, self.table, merged)

    def _scale(self):
        return self.active_dim / self.table.reference_dim

    @property
    def hydra_energy_pj(self):
        s = self._scale()
        return sum(n * self.table.ops[op].hydra_energy_pj * s for op, n in self.counts.items())

    @property
    def hydra_latency_ns(self):
        return sum(n * self.table.ops[op].hydra_latency_ns for op, n in self.counts.items())

    @property
    def cmos_net_energy_pj(self):
        return sum(n * self.table.ops[op].cmos_net_energy_pj for op, n in self.counts.items())


def charge_to(ledger, op_kind, count=1):
    """Charge count operations to the ledger, when there is one."""
    if ledger is not None and count:
        ledger.charge(op_kind, count)

