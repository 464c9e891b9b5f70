import re
from dataclasses import fields
from pathlib import Path

import pytest

from hdcam.cam import AnalogParams, VoltageProfile
from hdcam.cli import main
from hdcam.config import (
    ExperimentConfig,
    load_cost_table,
    load_experiment_config,
    load_profile,
    save_profile,
)
from hdcam.encoder import EncodingConfig
from hdcam.errors import ConfigError

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


class TestExperimentLoader:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[experimnet\]"):
            load_experiment_config(_ini(tmp_path, "[experimnet]\nseed = 1\n"))

    def test_default_section_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_experiment_config(_ini(tmp_path, "[DEFAULT]\nmode = multibit\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[experiment\] mdoe: unknown key"):
            load_experiment_config(_ini(tmp_path, "[experiment]\nmdoe = multibit\n"))

    @pytest.mark.parametrize("section, key", [
        ("analog", "i_cell_nominal"),  # derived from g_cell, gamma and v_th
        ("analog", "i_floor"),  # the one sensing floor is [sensing] floor
        ("encoding", "dim"),  # set by [experiment] dim
        ("experiment", "encoding"),
        ("experiment", "cluster_k"),
    ])
    def test_keys_that_are_not_settable(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
            load_experiment_config(_ini(tmp_path, f"[{section}]\n{key} = 5\n"))

    @pytest.mark.parametrize("section, key, raw", [
        ("experiment", "dim", "abc"),
        ("experiment", "seed", "1.5"),
        ("analog", "r_segment", "nan"),
        ("sensing", "floor", "inf"),
        ("cluster", "k", ""),
    ])
    def test_bad_cast_names_key_and_value(self, tmp_path, section, key, raw):
        p = _ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            load_experiment_config(p)
        assert f"[{section}] {key} = {raw!r}" in str(err.value)

    @pytest.mark.parametrize("section, key, raw", [
        ("analog", "gamma", "-1"),
        ("experiment", "test_fraction", "1.5"),
        ("sensing", "resolution", "1e-12"),
        ("synthetic", "kind", "bogus"),
        ("synthetic", "samples", "0"),
        ("cluster", "k", "1"),
        ("encoding", "scheme", "bogus"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, section, key, raw):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
            load_experiment_config(_ini(tmp_path, f"[{section}]\n{key} = {raw}\n"))

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_experiment_config(_ini(tmp_path, "seed = 1\n"))
        assert "\n" not in str(err.value)

    def test_blob_keys_reach_the_config(self, tmp_path):
        p = _ini(tmp_path, "[synthetic]\nblob_points = 15\nblob_max_flip_fraction = 0.125\n")
        cfg = load_experiment_config(p)
        assert cfg.synthetic.blob_points == 15
        assert cfg.synthetic.blob_max_flip_fraction == 0.125

    def test_meta_keys_are_the_loadable_keys(self, tmp_path):
        meta = ExperimentConfig().meta()
        candidates = set(meta)
        for section, cls in (("experiment", ExperimentConfig), ("encoding", EncodingConfig),
                             ("analog", AnalogParams)):
            candidates |= {f"{section}.{f.name}" for f in fields(cls)}
        candidates.add("analog.i_cell_nominal")
        accepted = set()
        for key in sorted(candidates):
            section, name = key.split(".")
            p = _ini(tmp_path, f"[{section}]\n{name} = {meta.get(key, 1)}\n")
            try:
                load_experiment_config(p)
            except ConfigError:
                continue
            accepted.add(key)
        assert accepted == set(meta)

    def test_meta_round_trips_through_the_loader(self, tmp_path):
        cfg = ExperimentConfig(
            seed=3, dim=512, retrain_epochs=2,
            analog=AnalogParams(r_segment=250.0, g_cell=1e-5),
        )
        back = load_experiment_config(_ini(tmp_path, _as_ini(cfg.meta())))
        assert back == cfg
        assert back.meta() == cfg.meta()

    def test_header_starts_with_seed_and_drops_derived_current(self):
        meta = ExperimentConfig().meta()
        assert next(iter(meta)) == "experiment.seed"
        assert "analog.i_cell_nominal" not in meta
        assert meta["experiment.cost_table_path"] == ""

    def test_readme_config_block_loads(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = load_experiment_config(_ini(tmp_path, block))
        documented = {
            f"{section}.{key}"
            for section, body in re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.S | re.M)
            for key in re.findall(r"^;? ?(\w+) =", body, re.M)
        }
        assert documented == set(cfg.meta())


class TestHeaderRoundTrip:
    def test_cluster_run_reproduces_from_its_header(self, tmp_path):
        cfg = _ini(tmp_path, (
            "[experiment]\nseed = 5\ndim = 512\n"
            "[cluster]\nk = 3\nthreshold = 4\n"
            "[synthetic]\nkind = hv_blobs\nclasses = 3\nblob_points = 15\n"
            "blob_max_flip_fraction = 0.1\n"
        ))
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        first = tmp_path / "a" / "cluster.csv"
        header = _header(first)
        assert header["synthetic.blob_points"] == "15"
        sections = {key.split(".")[0] for key in ExperimentConfig().meta()}
        config = {k: v for k, v in header.items() if k.split(".")[0] in sections}
        replay = _ini(tmp_path, _as_ini(config), "replay.ini")
        assert main(["cluster", "--config", str(replay), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "cluster.csv").read_bytes() == first.read_bytes()


class TestProfileFile:
    def test_save_writes_levels_only(self, tmp_path):
        save_profile(VoltageProfile((1.1, 1.05, 1.0, 0.95)), tmp_path / "p.ini")
        text = (tmp_path / "p.ini").read_text()
        assert "levels = 1.10, 1.05, 1.00, 0.95" in text
        assert "base_voltage" not in text

    def test_loads_file_with_base_voltage(self, tmp_path):
        p = _ini(tmp_path, "[profile]\nlevels = 1.10, 1.05, 1.00, 0.95\nbase_voltage = 1.00\n")
        assert load_profile(p).levels == (1.1, 1.05, 1.0, 0.95)

    def test_unknown_key(self, tmp_path):
        p = _ini(tmp_path, "[profile]\nlevels = 1, 1, 1, 1\nbase = 1\n")
        with pytest.raises(ConfigError, match=r"\[profile\] base: unknown key"):
            load_profile(p)

    @pytest.mark.parametrize("text", [
        "[profile]\nlevels = 1.0, x, 1.0, 1.0\n",
        "[profile]\nlevels = 1.0, 1.0\n",
        "[profile]\nbase_voltage = 1.0\n",
        "[other]\nlevels = 1, 1, 1, 1\n",
    ])
    def test_bad_profiles(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_profile(_ini(tmp_path, text))


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
