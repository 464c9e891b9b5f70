import argparse
import re
from dataclasses import fields
from pathlib import Path
from typing import Literal, get_args, get_origin

import pytest

from hdcam.cam import AnalogParams, VoltageProfile
from hdcam.cli import build_parser, main, verb_flags
from hdcam.config import (
    CASTS,
    VERBS,
    ExperimentConfig,
    load_cost_table,
    load_experiment_config,
    _cast_type,
    _keys,
    _sections,
    save_profile,
    verb_keys,
)
from hdcam.datasets import INGEST_KINDS, SyntheticSpec
from hdcam.encoder import EncodingConfig
from hdcam.errors import ConfigError
from hdcam.experiments import SCHEME_KINDS, synthesize_dataset
from hdcam.learner import ClusterSpec
from hdcam.lta import SensingSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def _ini(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _header(csv_path):
    """`# key = value` lines of a CSV as a dict, in file order."""
    out = {}
    for line in csv_path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" = ")
        out[key] = value
    return out


def _as_ini(meta):
    sections = {}
    for key, value in meta.items():
        section, name = key.split(".", 1)
        sections.setdefault(section, []).append(f"{name} = {value}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


def _reader(section):
    """A verb that reads the section."""
    return "cluster" if section == "cluster" else "classify"


# `section.key` -> the values of each Literal key.
LITERAL_KEYS = {f"{section}.{f.name}": get_args(f.type)
                for section, obj in _sections(ExperimentConfig()).items()
                for f in _keys(obj) if get_origin(f.type) is Literal}


class TestExperimentLoader:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[experimnet\]"):
            load_experiment_config(_ini(tmp_path, "[experimnet]\nseed = 1\n"), "classify")

    def test_default_section_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_experiment_config(_ini(tmp_path, "[DEFAULT]\nmode = multibit\n"), "classify")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[experiment\] mdoe: unknown key"):
            load_experiment_config(_ini(tmp_path, "[experiment]\nmdoe = multibit\n"), "classify")

    @pytest.mark.parametrize("section, key", [
        ("analog", "i_cell_nominal"),  # derived from g_cell, gamma and v_th
        ("analog", "i_floor"),  # the one sensing floor is [sensing] floor
        ("encoding", "dim"),  # set by [experiment] dim
        ("experiment", "encoding"),
        ("experiment", "cluster_k"),
    ])
    def test_keys_that_are_not_settable(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
            load_experiment_config(_ini(tmp_path, f"[{section}]\n{key} = 5\n"), "classify")

    @pytest.mark.parametrize("section, key, raw", [
        ("experiment", "dim", "abc"),
        ("experiment", "seed", "1.5"),
        ("analog", "r_segment", "nan"),
        ("sensing", "floor", "inf"),
        ("cluster", "k", ""),
        ("encoding", "drop_width", "abc"),  # a Literal key casts by its values' type
    ])
    def test_bad_cast_names_key_and_value(self, tmp_path, section, key, raw):
        p = _ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            load_experiment_config(p, _reader(section))
        assert f"[{section}] {key} = {raw!r}: expected " in str(err.value)

    @pytest.mark.parametrize("section, key, raw", [
        ("analog", "gamma", "-1"),
        ("experiment", "test_fraction", "1.5"),
        ("sensing", "resolution", "1e-12"),
        ("synthetic", "kind", "bogus"),
        ("synthetic", "samples", "0"),
        ("cluster", "k", "1"),
        ("encoding", "scheme", "bogus"),
        ("experiment", "mode", "ternary"),
        ("experiment", "backend", "digital"),
        ("experiment", "profile", "linear"),
        ("encoding", "permute_mode", "rotate"),
        ("encoding", "drop_width", "4"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, section, key, raw):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
            load_experiment_config(_ini(tmp_path, f"[{section}]\n{key} = {raw}\n"), _reader(section))

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_experiment_config(_ini(tmp_path, "seed = 1\n"), "classify")
        assert "\n" not in str(err.value)

    def test_blob_keys_reach_the_config(self, tmp_path):
        p = _ini(tmp_path, "[synthetic]\nblob_points = 15\nblob_max_flip_fraction = 0.125\n")
        cfg = load_experiment_config(p, "cluster")
        assert cfg.synthetic.blob_points == 15
        assert cfg.synthetic.blob_max_flip_fraction == 0.125

    def test_meta_round_trips_through_the_loader(self, tmp_path):
        cfg = ExperimentConfig(
            seed=3, dim=512, retrain_epochs=2,
            analog=AnalogParams(r_segment=250.0, g_cell=1e-5),
        )
        back = load_experiment_config(_ini(tmp_path, _as_ini(cfg.meta("classify"))), "classify")
        assert back == cfg
        assert back.meta("classify") == cfg.meta("classify")

    def test_header_starts_with_seed_and_drops_derived_current(self):
        meta = ExperimentConfig().meta("classify")
        assert next(iter(meta)) == "experiment.seed"
        assert "analog.i_cell_nominal" not in meta
        assert meta["experiment.cost_table_path"] == ""

    @pytest.mark.parametrize("verb, text", [
        ("classify", "[cluster]\nk = 9\n"),
        ("cluster", "[experiment]\nretrain_epochs = 3\n"),
        ("dim-sweep", "[experiment]\ndim = 1024\n"),
        ("transfer-curve", "[encoding]\nn = 5\n"),
        ("calibrate", "[synthetic]\nsamples = 10\n"),
        ("cost-report", "[analog]\nr_segment = 0\n"),
    ])
    def test_key_the_verb_does_not_read_names_the_verb(self, tmp_path, verb, text):
        section, key = re.match(r"\[(\w+)\]\n(\w+)", text).groups()
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: hdcam {verb} does not read"):
            load_experiment_config(_ini(tmp_path, text), verb)

    def test_each_verb_takes_its_declared_keys_and_flags(self):
        settable = {verb: len(verb_keys(verb)) + len(verb_flags(verb)) for verb in VERBS}
        assert settable == {"classify": 38, "cluster": 39, "dim-sweep": 37,
                            "transfer-curve": 6, "calibrate": 6, "cost-report": 3}
        assert "--dim" not in verb_flags("dim-sweep") and "--dims" in verb_flags("dim-sweep")
        # every cast is the cast type of some key
        sections = _sections(ExperimentConfig()).values()
        assert set(CASTS) <= {_cast_type(f) for obj in sections for f in _keys(obj)}

    def test_readme_config_block_loads(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        readers = {}  # section.key -> (verbs that read it, its line)
        for line in block.splitlines():
            verbs = re.search(r"read by ([\w, -]+)$", line)
            verbs = verbs and verbs.group(1).split(", ")
            if header := re.match(r"\[(\w+)\]", line):
                section, section_verbs = header.group(1), verbs
            elif key := re.match(r"^;? ?(\w+) =", line):
                readers[f"{section}.{key.group(1)}"] = (verbs or section_verbs, line)
        for verb in VERBS:
            documented = [key for key, (verbs, _) in readers.items() if verb in verbs]
            assert documented == verb_keys(verb), verb
            lines = {}
            for key in documented:
                lines.setdefault(key.split(".")[0], []).append(readers[key][1] + "\n")
            text = "".join(f"[{section}]\n" + "".join(body) for section, body in lines.items())
            load_experiment_config(_ini(tmp_path, text, f"{verb}.ini"), verb)

    def test_readme_choice_comments_match_the_literals(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        documented = {}  # section.key -> the values its `; a | b` comment lists
        for line in block.splitlines():
            if header := re.match(r"\[(\w+)\]", line):
                section = header.group(1)
            elif choice := re.match(r"^(\w+) = \S+ +; (.+ \| .+)$", line):
                values = choice.group(2).replace("(cluster only)", "").split("|")
                documented[f"{section}.{choice.group(1)}"] = [v.strip() for v in values]
        assert documented == {key: [str(v) for v in values] for key, values in LITERAL_KEYS.items()}


class TestChoiceTables:
    """Each table keyed by a closed choice covers exactly its values."""

    def test_scheme_kinds(self):
        assert set(SCHEME_KINDS) == set(LITERAL_KEYS["encoding.scheme"])
        assert sorted(SCHEME_KINDS.values()) == sorted(INGEST_KINDS)

    @pytest.mark.parametrize("kind", LITERAL_KEYS["synthetic.kind"])
    def test_every_synthetic_kind_synthesizes(self, kind):
        # A kind without its own branch would fall through to make_hv_blobs.
        made = {"records": "feature_csv", "languages": "text_corpus", "hv_blobs": "synthetic_blobs"}
        spec = SyntheticSpec(kind=kind, samples=8, classes=2, languages=2, text_length=8,
                             blob_points=3)
        dataset = synthesize_dataset(ExperimentConfig(dim=128, synthetic=spec))
        assert dataset.kind == made[kind] and dataset.n > 0

    def test_flag_choices_are_the_literals(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.option_strings[0]: a.choices for a in sub.choices["classify"]._actions if a.choices}
        assert flags == {"--kind": INGEST_KINDS,
                         **{f"--{name}": LITERAL_KEYS[f"experiment.{name}"]
                            for name in ("mode", "backend", "profile")}}


# Every field of the section dataclasses, settable or not.
CANDIDATES = {f"{section}.{f.name}" for section, cls in (
    ("experiment", ExperimentConfig), ("encoding", EncodingConfig), ("cluster", ClusterSpec),
    ("analog", AnalogParams), ("sensing", SensingSpec), ("synthetic", SyntheticSpec),
) for f in fields(cls)} | {"analog.i_cell_nominal"}
DEFAULTS = {key: value for verb in VERBS for key, value in ExperimentConfig().meta(verb).items()}

# A small run of each verb that writes a CSV: (CSV name, extra flags, config file).
RUNS = {
    "classify": ("classify.csv", [], (
        "[experiment]\nseed = 5\ndim = 256\nretrain_epochs = 1\n"
        "[synthetic]\nsamples = 60\nclasses = 3\nnoise = 0.1\n")),
    "cluster": ("cluster.csv", [], (
        "[experiment]\nseed = 5\ndim = 512\n"
        "[cluster]\nk = 3\nthreshold = 4\n"
        "[synthetic]\nkind = hv_blobs\nclasses = 3\nblob_points = 15\n"
        "blob_max_flip_fraction = 0.1\n")),
    "dim-sweep": ("dim_sweep.csv", ["--dims", "128,256"], (
        "[experiment]\nseed = 2\ntest_fraction = 0.25\n[synthetic]\nsamples = 60\n")),
    "transfer-curve": ("transfer_curve.csv", [], "[analog]\nr_segment = 500.0\ngamma = 0.7\n"),
    "cost-report": ("cost_report.csv", [], "[experiment]\ncost_table_path = {cost}\n"),
}


class TestVerbHeaders:
    @pytest.mark.parametrize("verb", RUNS)
    def test_header_is_the_accepted_config_and_replays_the_run(self, tmp_path, verb):
        accepted = set()
        for key in sorted(CANDIDATES):
            section, name = key.split(".")
            p = _ini(tmp_path, f"[{section}]\n{name} = {DEFAULTS.get(key, 1)}\n", "probe.ini")
            try:
                load_experiment_config(p, verb)
            except ConfigError:
                continue
            accepted.add(key)
        name, flags, text = RUNS[verb]
        cost = _ini(tmp_path, "[search]\nhydra_energy_pj = 20.0\n", "cost.ini")
        cfg = _ini(tmp_path, text.format(cost=cost))
        assert main([verb, "--config", str(cfg), *flags, "--out", str(tmp_path / "a")]) == 0
        first = tmp_path / "a" / name
        sections = {key.split(".")[0] for key in CANDIDATES}
        config = {k: v for k, v in _header(first).items() if k.split(".")[0] in sections}
        assert set(config) == accepted
        replay = _ini(tmp_path, _as_ini(config), "replay.ini")
        assert main([verb, "--config", str(replay), *flags, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / name).read_bytes() == first.read_bytes()


class TestProfileFile:
    def test_save_writes_levels_only(self, tmp_path):
        save_profile(VoltageProfile((1.1, 1.05, 1.0, 0.95)), tmp_path / "p.ini")
        text = (tmp_path / "p.ini").read_text()
        assert "levels = 1.10, 1.05, 1.00, 0.95" in text
        assert "base_voltage" not in text


class TestCostTableLoader:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[division\]"):
            load_cost_table(_ini(tmp_path, "[division]\nhydra_energy_pj = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[search\] energy_pj: unknown key"):
            load_cost_table(_ini(tmp_path, "[search]\nenergy_pj = 1\n"))

    def test_ops_is_not_a_table_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[table\] ops: unknown key"):
            load_cost_table(_ini(tmp_path, "[table]\nops = 1\n"))

    @pytest.mark.parametrize("section, key, raw", [
        ("addition", "cmos_cycles", "3.5"),
        ("table", "cmos_cycle_ns", "fast"),
        ("search", "hydra_energy_pj", "inf"),
    ])
    def test_bad_cast(self, tmp_path, section, key, raw):
        with pytest.raises(ConfigError) as err:
            load_cost_table(_ini(tmp_path, f"[{section}]\n{key} = {raw}\n"))
        assert f"[{section}] {key} = {raw!r}" in str(err.value)

    def test_non_positive_value(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^\[permutation\] "):
            load_cost_table(_ini(tmp_path, "[permutation]\nhydra_latency_ns = 0\n"))
