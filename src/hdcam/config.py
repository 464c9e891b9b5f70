"""Experiment configuration: INI-backed dataclasses and (de)serialization.

The config file is standard INI (configparser). The scalar fields of
ExperimentConfig form the [experiment] section and each dataclass-typed field
is the section of its own name ([encoding], [cluster], [analog], [sensing],
[synthetic]), so the keys and their types are read off the dataclasses.
VERBS declares which of those keys each verb reads; a verb's loader accepts,
and its CSV header records, exactly those. Every key is optional and falls
back to the dataclass default; an unknown section or key, a key the verb does
not read, or a value that does not cast, is an error. Voltage profiles and
cost-table overrides use the same format ([profile] / per-op sections).
"""

import configparser
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .cam import AnalogParams, VoltageProfile
from .cost import CostTable
from .datasets import SyntheticSpec
from .encoder import EncodingConfig
from .errors import ConfigError
from .hvcore import check_alignment
from .learner import ClusterSpec
from .lta import SensingSpec

MODES = ("binary", "multibit")
BACKENDS = ("ideal", "analog")
PROFILES = ("uniform", "calibrated")

# The keys each verb reads: a section name takes all of its keys, `section.key`
# one key, and `-section.key` takes one key of a taken section back out. Some
# keys are read only under one value of another ([analog], [sensing] and
# profile on the analog backend, [synthetic] without --data, levels under the
# record scheme); they stay accepted, because one file serves both values.
_RUN = ("experiment", "encoding", "analog", "sensing", "synthetic")
VERBS = {
    "classify": _RUN,
    "cluster": (*_RUN, "cluster", "-experiment.retrain_epochs", "-experiment.test_fraction"),
    "dim-sweep": (*_RUN, "-experiment.dim"),  # the sweep sets dim
    "transfer-curve": ("analog",),
    "calibrate": ("analog",),
    "cost-report": ("experiment.cost_table_path",),
}


def _finite_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# How an INI string becomes a value, by field annotation.
CASTS = {
    int: int,
    float: _finite_float,
    str: str,
    str | None: lambda raw: raw or None,
    tuple: lambda raw: tuple(_finite_float(v) for v in raw.split(",")),
}


@dataclass
class ExperimentConfig:
    """Everything a run needs: encoding, width, backend, profile, seeds."""

    seed: int = 0
    dim: int = 2048
    mode: str = "binary"
    backend: str = "ideal"
    profile: str = "calibrated"
    retrain_epochs: int = 0
    test_fraction: float = 0.2
    cost_table_path: str | None = None
    encoding: EncodingConfig = field(default_factory=EncodingConfig)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    analog: AnalogParams = field(default_factory=AnalogParams)
    sensing: SensingSpec = field(default_factory=SensingSpec)
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        check_alignment(self.dim)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}")
        if self.backend == "analog" and self.mode == "multibit":
            raise ConfigError("the CAM stores binary vectors; analog backend needs binary mode")
        if self.retrain_epochs < 0:
            raise ConfigError("retrain_epochs must be non-negative")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.encoding.dim != self.dim:
            self.encoding = replace(self.encoding, dim=self.dim)
        if self.cost_table_path is not None and not os.path.exists(self.cost_table_path):
            raise ConfigError(f"cost table file not found: {self.cost_table_path}")

    def with_overrides(self, **kwargs):
        """Copy with the given fields replaced; a None value leaves its field as is."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    def cost_table(self):
        if self.cost_table_path is None:
            return CostTable()
        return load_cost_table(self.cost_table_path)

    def meta(self, verb):
        """Flat `section.key` view of the keys `verb` reads, for CSV header blocks."""
        reads = verb_keys(verb)
        return {key: "" if v is None else v for key, v in _values(self).items() if key in reads}


def _values(cfg):
    """`section.key` -> value of every INI key of cfg, in header order."""
    return {f"{section}.{f.name}": getattr(obj, f.name)
            for section, obj in _sections(cfg).items() for f in _keys(obj)}


def verb_keys(verb):
    """The `section.key` names `verb` reads, in header order."""
    reads = VERBS[verb]
    return [key for key in _values(ExperimentConfig())
            if (key in reads or key.split(".")[0] in reads) and "-" + key not in reads]


def _keys(obj):
    """Fields of a config dataclass that are INI keys: castable, not set elsewhere."""
    return [f for f in fields(obj) if f.type in CASTS and "set_by" not in f.metadata]


def _sections(cfg):
    """Section name -> object: [experiment] is cfg's own scalars, each nested
    dataclass field is the section of its own name."""
    nested = {f.name: getattr(cfg, f.name) for f in fields(cfg) if is_dataclass(f.type)}
    return {"experiment": cfg, **nested}


def _parse(path, sections):
    """INI parser for path, rejecting sections outside the given names."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: " + " ".join(str(exc).split())) from None
    for name in parser.sections() + ([parser.default_section] if parser.defaults() else []):
        if name not in sections:
            raise ConfigError(f"{path}: unknown section [{name}]")
    return parser


def _read(parser, section, obj):
    """obj with the keys present in [section], each cast by its field annotation."""
    types = {f.name: f.type for f in _keys(obj)}
    values = {}
    for key, raw in parser.items(section) if parser.has_section(section) else ():
        if key not in types:
            raise ConfigError(f"[{section}] {key}: unknown key")
        try:
            values[key] = CASTS[types[key]](raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r}: expected {types[key].__name__}") from None
    try:
        return replace(obj, **values)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def load_experiment_config(path, verb, base=None):
    """`verb`'s ExperimentConfig from an INI file. Keys the file leaves out keep
    their values in base (the dataclass defaults if None); a key that `verb`
    does not read is an error."""
    base = ExperimentConfig() if base is None else base
    sections = _sections(base)
    parser = _parse(path, sections)
    known, reads = _values(base), verb_keys(verb)
    for section in parser.sections():
        for key in parser.options(section):
            if f"{section}.{key}" in known and f"{section}.{key}" not in reads:
                raise ConfigError(f"[{section}] {key}: hdcam {verb} does not read this key")
    cfg = sections.pop("experiment")
    nested = {name: _read(parser, name, obj) for name, obj in sections.items()}
    return _read(parser, "experiment", replace(cfg, **nested))


def save_profile(profile, path):
    parser = configparser.ConfigParser()
    parser["profile"] = {"levels": ", ".join(f"{v:.2f}" for v in profile.levels)}
    with open(path, "w") as f:
        parser.write(f)


def load_profile(path):
    """VoltageProfile from the [profile] levels of an INI file."""
    parser = _parse(path, ("profile",))
    if not parser.has_option("profile", "levels"):
        raise ConfigError(f"no [profile] levels in {path}")
    # Files written by older versions also carry base_voltage, which nothing read.
    parser.remove_option("profile", "base_voltage")
    return _read(parser, "profile", VoltageProfile.uniform())


def load_cost_table(path):
    """Cost table from an INI file with one section per op plus [table]."""
    base = CostTable()
    parser = _parse(path, (*base.ops, "table"))
    ops = {op: _read(parser, op, cost) for op, cost in base.ops.items()}
    return _read(parser, "table", replace(base, ops=ops))
