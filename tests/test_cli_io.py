import numpy as np
import pytest

from hdcam.cli import main
from hdcam.config import (
    ExperimentConfig,
    load_cost_table,
    load_experiment_config,
    load_profile,
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
from hdcam.experiments import (
    run_classify,
    run_cluster,
    run_cost_report,
    run_dim_sweep,
    run_transfer_curve,
    synthesize_dataset,
)
from hdcam.hvcore import Rng
from hdcam.cam import VoltageProfile
from hdcam.learner import ClusterSpec


class TestIngest:
    def test_feature_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,a\n3.5,4.5,b\n5.0,6.0,a\n")
        ds = ingest(p, "feature_csv")
        assert ds.n == 3
        assert ds.labels == ["a", "b", "a"]
        assert ds.metadata["feature_min"] == [1.0, 2.0]
        assert ds.metadata["feature_max"] == [5.0, 6.0]

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

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,a\n")
        with pytest.raises(ParseError):
            ingest(p, "parquet")


class TestGenerators:
    def test_record_blobs_shape(self):
        spec = SyntheticSpec(kind="records", samples=60, classes=3, features=5)
        ds = make_record_blobs(spec, Rng(1))
        assert ds.n == 60
        assert len(ds.samples[0]) == 5
        assert len(set(ds.labels)) == 3

    def test_language_corpus_shape(self):
        spec = SyntheticSpec(kind="languages", samples=40, languages=4, text_length=31)
        ds = make_language_corpus(spec, Rng(2))
        assert ds.n == 40
        assert all(len(t) == 31 for t in ds.samples)
        assert len(set(ds.labels)) == 4

    def test_hv_blobs_flip_budget(self):
        ds = make_hv_blobs(2, 10, 1024, Rng(3))
        centers = ds.metadata["centers"]
        assert ds.samples.shape == (20, 1024) and centers.shape == (2, 1024)
        for point, label in zip(ds.samples, ds.labels):
            flips = int(np.count_nonzero(point != centers[label]))
            assert flips <= 1024 // 16

    def test_generators_deterministic(self):
        spec = SyntheticSpec(kind="records", samples=20)
        a = make_record_blobs(spec, Rng(5))
        b = make_record_blobs(spec, Rng(5))
        assert a.samples == b.samples

    def test_purity(self):
        assert purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
        assert purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.5


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
        back = load_profile(tmp_path / "p.ini")
        assert back.levels == prof.levels

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
        res = run_classify(cfg, ds, out)
        assert 0.5 <= res.accuracy <= 1.0
        assert res.n_train + res.n_test == ds.n
        text = out.read_text()
        assert text.startswith("# experiment.seed = 0")
        assert "# accuracy =" in text
        assert "sample_index,true_label,predicted_label,correct" in text

    def test_classify_deterministic_bytes(self, tmp_path):
        cfg = _small_records_cfg(seed=4)
        ds = synthesize_dataset(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_classify(cfg, ds, a)
        run_classify(cfg, ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_classify_charges_search_per_query(self):
        cfg = _small_records_cfg()
        ds = synthesize_dataset(cfg)
        res = run_classify(cfg, ds)
        assert res.reports["infer_search"].counts["search"] == res.n_test

    def test_classify_exports_lta_trace_column(self, tmp_path):
        cfg = _small_records_cfg(backend="analog", profile="uniform")
        ds = synthesize_dataset(cfg)
        out = tmp_path / "analog.csv"
        run_classify(cfg, ds, out)
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
        res = run_cluster(cfg, ds, tmp_path / "cluster.csv")
        assert res.purity >= 0.95
        assert res.converged
        hist = res.state.objective_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert (tmp_path / "cluster.csv").read_text().count("\n") > 10

    def test_dim_sweep_exact_energy_scaling(self, tmp_path):
        cfg = _small_records_cfg()
        ds = synthesize_dataset(cfg)
        rows, results = run_dim_sweep(cfg, ds, [1024, 2048], tmp_path / "sweep.csv")
        r1024 = {row[0]: row for row in rows}[1024]
        r2048 = {row[0]: row for row in rows}[2048]
        assert results[1024].reports["total"].counts == results[2048].reports["total"].counts
        assert r1024[2] == r2048[2] * 0.5
        assert r1024[3] == r2048[3] * 0.5
        header = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "dim,accuracy," in header[[i for i, l in enumerate(header) if not l.startswith("#")][0]]

    def test_transfer_curve_csv_columns(self, tmp_path):
        cfg = ExperimentConfig()
        out = tmp_path / "tc.csv"
        curves, meta = run_transfer_curve(cfg, out)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "hamming,current_amperes,profile_id"
        assert len(lines) == 1 + 2 * 129
        assert meta["max_deviation_uniform_a"] > meta["max_deviation_calibrated_a"]

    def test_cost_report_rows(self, tmp_path):
        rows, meta = run_cost_report(ExperimentConfig(), tmp_path / "cost.csv")
        assert len(rows) == 4
        assert meta["mem_read_energy_nj"] == 0.411

    def test_text_corpus_pipeline(self):
        cfg = ExperimentConfig(
            dim=256,
            seed=1,
            encoding=EncodingConfig(scheme="ngram", n=2, dim=256),
            synthetic=SyntheticSpec(kind="languages", samples=60, languages=3, text_length=21),
        )
        ds = synthesize_dataset(cfg)
        res = run_classify(cfg, ds)
        assert res.accuracy >= 0.5


class TestCli:
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
        prof = load_profile(tmp_path / "profile.ini")
        assert len(prof.levels) == 4

    def test_calibrate_verb_high_resistance(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[analog]\nr_segment = 100000\n")
        rc = main(["calibrate", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        assert load_profile(tmp_path / "profile.ini").levels == (1.2, 1.2, 1.2, 0.8)

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

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,a\n1.0\n")
        rc = main(["classify", "--data", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err
