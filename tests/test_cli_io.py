import configparser
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdcam.cli import main, verb_flags
from hdcam.config import (
    VERBS,
    ExperimentConfig,
    load_cost_table,
    load_experiment_config,
    save_profile,
)
from hdcam.datasets import (
    SyntheticSpec,
    ingest,
    make_hv_blobs,
    make_language_corpus,
    make_record_blobs,
    purity,
    train_test_indices,
)
from hdcam.encoder import EncodingConfig
from hdcam.errors import ConfigError, EmptyDatasetError, ParseError
from hdcam import experiments
from hdcam.experiments import (
    encode_subset,
    run_classify,
    run_cluster,
    run_cost_report,
    run_dim_sweep,
    run_transfer_curve,
    synthesize_dataset,
    write_csv,
)
from hdcam.hvcore import Rng, random_bits, unpack_rows
from hdcam.cam import VoltageProfile
from hdcam.learner import ClusterSpec


def _saved_levels(path):
    """The levels of the one [profile] section of a profile file, read with configparser."""
    parser = configparser.ConfigParser()
    parser.read(path)
    assert parser.sections() == ["profile"] and list(parser["profile"]) == ["levels"]
    return tuple(float(v) for v in parser["profile"]["levels"].split(","))


class TestIngest:
    def test_feature_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,a\n3.5,4.5,b\n5.0,6.0,a\n")
        ds = ingest(p, "feature_csv")
        assert ds.n == 3
        assert ds.labels == ["a", "b", "a"]
        assert ds.samples.dtype == np.float64
        assert np.array_equal(ds.samples, [[1.0, 2.0], [3.5, 4.5], [5.0, 6.0]])

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,a\n3.5,b\n")
        with pytest.raises(ParseError) as err:
            ingest(p, "feature_csv")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,x,a\n")
        with pytest.raises(ParseError) as err:
            ingest(p, "feature_csv")
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(EmptyDatasetError):
            ingest(p, "feature_csv")

    def test_text_corpus(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("en\thello there\nfr\tbonjour\n")
        ds = ingest(p, "text_corpus")
        assert ds.samples == ["hello there", "bonjour"]
        assert ds.labels == ["en", "fr"]

    def test_text_missing_tab(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("en hello\n")
        with pytest.raises(ParseError) as err:
            ingest(p, "text_corpus")
        assert err.value.line == 1


def _purity_reference(assignments, labels):
    """purity through np.unique, as it was computed before the bincount table."""
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    correct = 0
    for k in np.unique(assignments):
        members = labels[assignments == k]
        if len(members):
            _, counts = np.unique(members, return_counts=True)
            correct += counts.max()
    return correct / len(labels)


class TestGenerators:
    def test_record_blobs_shape(self):
        spec = SyntheticSpec(kind="records", samples=60, classes=3, features=5)
        ds = make_record_blobs(spec, Rng(1))
        assert ds.n == 60
        assert ds.samples.shape == (60, 5) and ds.samples.dtype == np.float64
        assert ds.labels[:4] == ["class_0", "class_1", "class_2", "class_0"]

    def test_language_corpus_shape(self):
        spec = SyntheticSpec(kind="languages", samples=40, languages=4, text_length=31)
        ds = make_language_corpus(spec, Rng(2))
        assert ds.n == 40
        assert all(len(t) == 31 for t in ds.samples)
        assert len(set(ds.labels)) == 4

    @pytest.mark.parametrize("features", [1, 5, 9])
    def test_record_blobs_one_draw_equals_per_row_draws(self, features):
        spec = SyntheticSpec(kind="records", samples=600, classes=7, features=features, noise=0.3)
        ds = make_record_blobs(spec, Rng(11))
        gen = Rng(11)
        protos = gen.uniform(0.0, 1.0, size=(spec.classes, features))
        rows = [
            np.clip(protos[i % spec.classes] + gen.normal(0.0, spec.noise, size=features), 0.0, 1.0)
            for i in range(spec.samples)
        ]
        assert np.array_equal(ds.samples, np.stack(rows))

    @pytest.mark.parametrize("languages, length", [(1, 1), (3, 17), (10, 61)])
    def test_language_corpus_one_draw_equals_per_char_choice(self, languages, length):
        spec = SyntheticSpec(kind="languages", samples=90, languages=languages, text_length=length)
        ds = make_language_corpus(spec, Rng(13))
        gen = Rng(13)
        transitions = [gen.dirichlet(np.full(26, 0.3), size=26) for _ in range(languages)]
        initials = [gen.dirichlet(np.full(26, 0.3)) for _ in range(languages)]
        texts = []
        for i in range(spec.samples):
            chars = [int(gen.choice(26, p=initials[i % languages]))]
            for _ in range(length - 1):
                chars.append(int(gen.choice(26, p=transitions[i % languages][chars[-1]])))
            texts.append("".join(chr(ord("a") + c) for c in chars))
        assert ds.samples == texts
        assert ds.labels == [f"lang_{i % languages}" for i in range(spec.samples)]

    def test_hv_blobs_flip_budget(self):
        ds = make_hv_blobs(2, 10, 1024, Rng(3))
        # the centers are the generator's first draw
        centers = random_bits(2, 1024, Rng(3))
        assert ds.samples.dtype == np.uint64 and ds.samples.shape == (20, 1024 // 64)
        for point, label in zip(unpack_rows(ds.samples), ds.labels):
            flips = int(np.count_nonzero(point != centers[label]))
            assert flips <= 1024 // 16

    def test_generators_deterministic(self):
        spec = SyntheticSpec(kind="records", samples=20)
        a = make_record_blobs(spec, Rng(5))
        b = make_record_blobs(spec, Rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_purity(self):
        assert purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
        assert purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.5

    @given(
        st.integers(1, 8).flatmap(lambda k: st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(-2, 3)),
            min_size=1, max_size=60,
        )),
        st.booleans(),
    )
    def test_purity_equals_unique_reference(self, pairs, as_strings):
        # Cluster ids up to k - 1 leave some unused; k = 1 is a single cluster.
        assignments = [a for a, _ in pairs]
        labels = [f"c{label}" if as_strings else label for _, label in pairs]
        assert purity(assignments, labels) == _purity_reference(assignments, labels)


class TestSplit:
    def test_pure_function_of_seed(self):
        a = train_test_indices(100, 0.2, 7)
        b = train_test_indices(100, 0.2, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_partition(self):
        tr, te = train_test_indices(50, 0.2, 3)
        assert len(tr) == 40 and len(te) == 10
        assert set(tr) | set(te) == set(range(50))
        assert not set(tr) & set(te)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_indices(10, 0.0, 1)


class TestConfig:
    def test_ini_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[experiment]\nseed = 9\ndim = 512\nmode = multibit\nretrain_epochs = 3\n"
            "[encoding]\nscheme = ngram\nn = 4\n"
            "[analog]\nr_segment = 250.0\n"
            "[synthetic]\nkind = languages\nsamples = 99\n"
        )
        cfg = load_experiment_config(p, "classify")
        assert cfg.seed == 9 and cfg.dim == 512 and cfg.mode == "multibit"
        assert cfg.encoding.scheme == "ngram" and cfg.encoding.n == 4
        assert cfg.encoding.dim == 512
        assert cfg.analog.r_segment == 250.0
        assert cfg.synthetic.kind == "languages" and cfg.synthetic.samples == 99

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "nope.ini", "classify")

    def test_analog_multibit_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="multibit", backend="analog")

    def test_unaligned_dim_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(dim=1000)

    def test_missing_cost_table_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cost_table_path="/does/not/exist.ini")

    def test_profile_roundtrip(self, tmp_path):
        prof = VoltageProfile((1.1, 1.05, 1.0, 0.95))
        save_profile(prof, tmp_path / "p.ini")
        assert _saved_levels(tmp_path / "p.ini") == prof.levels

    def test_cost_table_override(self, tmp_path):
        p = tmp_path / "cost.ini"
        p.write_text("[addition]\nhydra_energy_pj = 50.0\n[table]\nreference_dim = 1024\n")
        t = load_cost_table(p)
        assert t.ops["addition"].hydra_energy_pj == 50.0
        assert t.ops["search"].hydra_energy_pj == 14.65
        assert t.reference_dim == 1024


def _small_records_cfg(seed=0, **overrides):
    cfg = ExperimentConfig(
        dim=256,
        seed=seed,
        retrain_epochs=1,
        synthetic=SyntheticSpec(kind="records", samples=120, classes=3, features=5, noise=0.1),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


class TestRunners:
    def test_classify_metrics_and_csv(self, tmp_path):
        cfg = _small_records_cfg()
        ds = synthesize_dataset(cfg)
        out = tmp_path / "classify.csv"
        run = run_classify(cfg, ds)
        write_csv(out, run.meta, run.columns, run.rows)
        assert 0.5 <= run.meta["accuracy"] <= 1.0
        assert run.meta["n_train"] + run.meta["n_test"] == ds.n
        text = out.read_text()
        assert text.startswith("# experiment.seed = 0")
        assert "# accuracy =" in text
        assert "sample_index,true_label,predicted_label,correct" in text

    def test_classify_deterministic_bytes(self, tmp_path):
        cfg = _small_records_cfg(seed=4)
        ds = synthesize_dataset(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run = run_classify(cfg, ds)
            write_csv(path, run.meta, run.columns, run.rows)
        assert a.read_bytes() == b.read_bytes()

    def test_classify_charges_search_per_query(self):
        cfg = _small_records_cfg()
        ds = synthesize_dataset(cfg)
        run = run_classify(cfg, ds)
        assert run.reports["infer_search"].counts["search"] == run.meta["n_test"]

    @pytest.mark.parametrize("mode", ["binary", "multibit"])
    def test_classify_releases_the_training_batch_before_encoding_queries(self, mode, monkeypatch):
        cfg = _small_records_cfg(mode=mode)
        ds = synthesize_dataset(cfg)
        batches, alive = [], []

        def spy(*args, **kwargs):
            alive.extend(ref() is not None for ref in batches)
            batch = encode_subset(*args, **kwargs)
            batches.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(experiments, "encode_subset", spy)
        run_classify(cfg, ds)
        assert len(batches) == 2 and alive == [False]

    def test_classify_exports_lta_trace_column(self, tmp_path):
        cfg = _small_records_cfg(backend="analog", profile="uniform")
        ds = synthesize_dataset(cfg)
        out = tmp_path / "analog.csv"
        run = run_classify(cfg, ds)
        write_csv(out, run.meta, run.columns, run.rows)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].endswith(",lta_ambiguous_flags")
        flags = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
        assert all(f >= 0 for f in flags)

    def test_cluster_on_blobs(self, tmp_path):
        cfg = ExperimentConfig(
            dim=1024,
            seed=2,
            cluster=ClusterSpec(k=2, threshold=8),
            synthetic=SyntheticSpec(kind="hv_blobs", classes=2, blob_points=15),
        )
        ds = synthesize_dataset(cfg)
        run = run_cluster(cfg, ds)
        write_csv(tmp_path / "cluster.csv", run.meta, run.columns, run.rows)
        assert run.meta["purity"] >= 0.95
        assert run.meta["converged"]
        hist = [float(v) for v in run.meta["objective_history"].split(";")]
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert (tmp_path / "cluster.csv").read_text().count("\n") > 10

    def test_dim_sweep_exact_energy_scaling(self, tmp_path):
        cfg = _small_records_cfg()
        ds = synthesize_dataset(cfg)
        run = run_dim_sweep(cfg, ds, [1024, 2048])
        write_csv(tmp_path / "sweep.csv", run.meta, run.columns, run.rows)
        r1024 = {row[0]: row for row in run.rows}[1024]
        r2048 = {row[0]: row for row in run.rows}[2048]
        totals = [run_classify(cfg.with_overrides(dim=dim), ds).reports["total"] for dim in (1024, 2048)]
        assert totals[0].counts == totals[1].counts
        assert r1024[2] == r2048[2] * 0.5
        assert r1024[3] == r2048[3] * 0.5
        header = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "dim,accuracy," in header[[i for i, l in enumerate(header) if not l.startswith("#")][0]]

    def test_transfer_curve_csv_columns(self, tmp_path):
        cfg = ExperimentConfig()
        out = tmp_path / "tc.csv"
        run = run_transfer_curve(cfg)
        write_csv(out, run.meta, run.columns, run.rows)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "hamming,current_amperes,profile_id"
        assert len(lines) == 1 + 2 * 129
        assert run.meta["max_deviation_uniform_a"] > run.meta["max_deviation_calibrated_a"]

    def test_cost_report_rows(self):
        run = run_cost_report(ExperimentConfig())
        assert len(run.rows) == 4
        assert run.meta["mem_read_energy_nj"] == 0.411

    def test_text_corpus_pipeline(self):
        cfg = ExperimentConfig(
            dim=256,
            seed=1,
            encoding=EncodingConfig(scheme="ngram", n=2, dim=256),
            synthetic=SyntheticSpec(kind="languages", samples=60, languages=3, text_length=21),
        )
        ds = synthesize_dataset(cfg)
        assert run_classify(cfg, ds).meta["accuracy"] >= 0.5


class TestCli:
    @pytest.mark.parametrize("verb", VERBS)
    def test_every_verb_writes_one_file(self, tmp_path, verb):
        # A verb that main does not run would write nothing, or fail.
        widths = [arg for flag in ("--dim", "--dims") if flag in verb_flags(verb) for arg in (flag, "256")]
        assert main([verb, "--out", str(tmp_path), *widths]) == 0
        name = "profile.ini" if verb == "calibrate" else f"{verb.replace('-', '_')}.csv"
        assert [path.name for path in tmp_path.iterdir()] == [name]

    def test_classify_verb(self, tmp_path, capsys):
        rc = main(["classify", "--out", str(tmp_path), "--seed", "3", "--dim", "256"])
        assert rc == 0
        assert (tmp_path / "classify.csv").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_cluster_verb(self, tmp_path, capsys):
        rc = main(["cluster", "--out", str(tmp_path), "--seed", "1", "--dim", "512"])
        assert rc == 0
        assert (tmp_path / "cluster.csv").exists()
        assert "purity" in capsys.readouterr().out

    def test_cluster_honours_set_synthetic_keys(self, tmp_path):
        # Without --data, cluster draws planted blobs only for the keys the file leaves out.
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[synthetic]\nkind = records\nclasses = 6\nsamples = 60\n")
        rc = main(["cluster", "--config", str(cfgfile), "--dim", "256", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "cluster.csv").read_text()
        assert "# synthetic.kind = records\n" in text and "# synthetic.classes = 6\n" in text
        body = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        assert len(body) == 60 and len({label for _, label, _ in body}) == 6

    def test_cluster_blobs_follow_k(self, tmp_path):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[cluster]\nk = 3\n[synthetic]\nblob_points = 10\n")
        rc = main(["cluster", "--config", str(cfgfile), "--dim", "256", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "cluster.csv").read_text()
        assert "# synthetic.kind = hv_blobs\n" in text and "# synthetic.classes = 3\n" in text

    def test_dim_sweep_verb(self, tmp_path):
        rc = main(["dim-sweep", "--out", str(tmp_path), "--dims", "256,512", "--seed", "2"])
        assert rc == 0
        assert (tmp_path / "dim_sweep.csv").exists()

    def test_transfer_curve_verb(self, tmp_path):
        rc = main(["transfer-curve", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "transfer_curve.csv").exists()

    def test_calibrate_verb(self, tmp_path):
        rc = main(["calibrate", "--out", str(tmp_path)])
        assert rc == 0
        assert len(_saved_levels(tmp_path / "profile.ini")) == 4

    def test_calibrate_verb_high_resistance(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[analog]\nr_segment = 100000\n")
        rc = main(["calibrate", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        assert _saved_levels(tmp_path / "profile.ini") == (1.2, 1.2, 1.2, 0.8)

    @pytest.mark.parametrize("verb", ["transfer-curve", "calibrate"])
    def test_analog_verbs_do_not_check_the_sensing_floor(self, tmp_path, verb):
        # Neither verb reads [sensing], so a g_cell whose mismatch current falls
        # below the sensing floor is no error for them.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[analog]\ng_cell = 1e-9\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_cost_report_verb(self, tmp_path, capsys):
        rc = main(["cost-report", "--out", str(tmp_path)])
        assert rc == 0
        assert "552.74" in capsys.readouterr().out

    def test_config_file_and_data_file(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        rows = []
        gen = np.random.default_rng(0)
        for i in range(80):
            c = i % 2
            rows.append(f"{0.2 + 0.6 * c + gen.normal(0, 0.05):.4f},{0.8 - 0.6 * c + gen.normal(0, 0.05):.4f},c{c}")
        data.write_text("\n".join(rows) + "\n")
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[experiment]\ndim = 256\nseed = 5\n")
        rc = main([
            "classify", "--config", str(cfgfile), "--data", str(data),
            "--kind", "feature_csv", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "classify.csv").exists()

    def test_binary_retrain_on_imbalanced_classes(self, tmp_path, capsys):
        # Classes at 60/35/5 %: a binary retrain epoch moves more rows out of
        # some class than it holds, and the run still completes.
        gen = np.random.default_rng(0)
        labels = gen.choice(3, size=1000, p=[0.6, 0.35, 0.05])
        features = 0.3 * gen.random((3, 6))[labels] + 0.7 * gen.random((1000, 6))
        data = tmp_path / "imbalanced.csv"
        data.write_text("".join(",".join(f"{v:.4f}" for v in row) + f",c{label}\n"
                                for row, label in zip(features, labels)))
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[experiment]\nretrain_epochs = 1\n")
        rc = main(["classify", "--config", str(cfgfile), "--data", str(data), "--dim", "512",
                   "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        assert "accuracy" in capsys.readouterr().out

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,a\n1.0\n")
        rc = main(["classify", "--data", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


# Imports hdcam.cli, then runs every verb and prints the numpy modules the runs imported.
_AUDIT = """
import contextlib, io, json, sys
import hdcam.cli
before = set(sys.modules)
out, data = sys.argv[1], sys.argv[2]
runs = [
    ["classify", "--dim", "256"],
    ["cluster", "--dim", "256", "--data", data],
    ["dim-sweep", "--dims", "256"],
    ["transfer-curve"],
    ["calibrate"],
    ["cost-report"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(hdcam.cli.main([*argv, "--out", f"{out}/{argv[0]}"]))
print(json.dumps([codes, sorted(m for m in set(sys.modules) - before if m.startswith("numpy"))]))
"""


def test_run_path_imports(tmp_path):
    # numpy.random is the one numpy package the verbs may load after start-up
    # (lazily, so it stays out of import time). np.unique and its family
    # (setdiff1d, isin, union1d, intersect1d) import numpy.ma, about 17 ms.
    data = tmp_path / "toy.csv"
    gen = np.random.default_rng(0)
    data.write_text("".join(
        f"{0.2 + 0.6 * (i % 2) + gen.normal(0, 0.05):.4f},{0.8 - 0.6 * (i % 2):.4f},c{i % 2}\n"
        for i in range(40)
    ))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _AUDIT, str(tmp_path / "out"), str(data)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    codes, imported = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 6
    assert "numpy.random" in imported  # loaded by the runs, not by the import
    assert [m for m in imported if m != "numpy.random" and not m.startswith("numpy.random.")] == []
