"""Bad input ends as an HdcError: exit 2 and one `error:` line, never a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcam import experiments
from hdcam.cli import main, verb_flags
from hdcam.config import VERBS, ExperimentConfig, verb_keys
from hdcam.datasets import ingest, train_test_indices
from hdcam.errors import ConfigError, HdcError, ParseError

NUMBERS = st.floats(-10, 10).map(repr)
FIELDS = st.one_of(
    st.sampled_from(["1e308", "-1e308", "nan", "inf", "-inf", "x", "", " ", "1e-320", "1_0"]),
    st.floats().map(repr),
    st.text(alphabet="0123456789.-+eE", max_size=5),
)
LABELS = st.sampled_from(["a", "b", "c", "", " a "])
# Lines of a fixed arity, mostly well formed, with some wild ones mixed in.
CSV_LINES = st.integers(1, 3).flatmap(lambda arity: st.lists(st.one_of(
    *[st.tuples(st.lists(NUMBERS, min_size=arity, max_size=arity), LABELS)] * 3,
    st.tuples(st.lists(FIELDS, max_size=3), LABELS),
).map(lambda t: ",".join([*t[0], t[1]])) | st.sampled_from(["", "   ", ",", "a"]), max_size=12))
TEXT_LINES = st.lists(st.one_of(
    *[st.tuples(LABELS, st.text(alphabet="abc", min_size=3, max_size=8)).map("\t".join)] * 3,
    st.tuples(LABELS, st.text(alphabet="ab \t", max_size=6)).map("\t".join),
    st.text(alphabet="ab \t", max_size=6),
), max_size=12)
DATA = st.tuples(st.just("feature_csv"), CSV_LINES) | st.tuples(st.just("text_corpus"), TEXT_LINES)
# A line that makes any file of its kind malformed, appended to force exit 2.
POISON = {"feature_csv": "nan,nan,a", "text_corpus": "no tab here"}

# Every key some verb reads, with its default.
META = {key: value for verb in VERBS for key, value in ExperimentConfig().meta(verb).items()}
VALUES = st.sampled_from(sorted({str(v) for v in META.values()}) + [
    "-1", "0", "1", "2", "3", "0.5", "0.99", "1e-12", "nan", "inf", "abc",
    "multibit", "analog", "uniform", "ngram", "drop", "hv_blobs", "16",
])
# Mostly known keys with their default or a plausible value; some that are not keys.
ENTRIES = st.one_of(
    *[st.sampled_from(sorted(META)).flatmap(
        lambda k: st.tuples(st.just(k), st.just(str(META[k])) | VALUES))] * 4,
    st.tuples(st.sampled_from(["experiment.mdoe", "analog.i_cell_nominal", "encoding.dim",
                               "bogus.seed"]), VALUES),
)
JUNK = st.sampled_from(["garbage", "[unclosed", "= 1", "  continued", "; comment", "[analog]"])


def _ini_text(entries, junk):
    sections = {}
    for key, value in dict(entries).items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {value}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()) + junk


INI_TEXT = st.builds(_ini_text, st.lists(ENTRIES, max_size=5),
                     st.just("") | st.just("") | st.just("") | JUNK.map(lambda j: j + "\n"))
GOOD_DATA = "".join(f"{0.1 * (i % 3) + 0.01 * i:.3f},{0.9 - 0.1 * (i % 3):.3f},c{i % 3}\n"
                    for i in range(12))


def _argv(verb, cfg, tmp):
    """A small run of the verb on the config file, with the flags it takes."""
    flags = verb_flags(verb)
    argv = [verb, "--config", str(cfg), "--out", str(Path(tmp) / "out")]
    if "--data" in flags:
        data = Path(tmp) / "data.csv"
        data.write_text(GOOD_DATA)
        argv += ["--data", str(data)]
    if "--dim" in flags:
        argv += ["--dim", "128"]
    if "--dims" in flags:
        argv += ["--dims", "128"]
    return argv


def _run(argv):
    """(exit code, stderr) of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_clean(rc, err, must_fail=False):
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err
    if must_fail or rc != 0:
        assert rc == 2, err
        assert len(errors) == 1, err
    else:
        assert not errors, err


@given(data=DATA)
def test_ingest_returns_finite_data_or_raises_hdc_error(data):
    kind, lines = data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        path.write_text("\n".join(lines) + "\n")
        try:
            ds = ingest(path, kind)
        except HdcError:
            return
    assert ds.n == len(ds.labels) > 0
    if kind == "feature_csv":
        assert all(abs(v) < float("inf") for row in ds.samples for v in row)


@settings(max_examples=40)
@given(data=DATA, verb=st.sampled_from(["classify", "cluster"]), poison=st.booleans())
def test_cli_on_fuzzed_data(data, verb, poison):
    kind, lines = data
    if poison:
        lines = [*lines, POISON[kind]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        path.write_text("\n".join(lines) + "\n")
        rc, err = _run([verb, "--data", str(path), "--kind", kind, "--dim", "128",
                        "--out", str(Path(tmp) / "out")])
    _assert_clean(rc, err, must_fail=poison)


@settings(max_examples=40)
@given(text=INI_TEXT, verb=st.sampled_from(sorted(VERBS)), poison=st.booleans())
def test_cli_on_fuzzed_ini(text, verb, poison):
    if poison:
        text += "[cluster]\nmdoe = 1\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.ini"
        cfg.write_text(text)
        rc, err = _run(_argv(verb, cfg, tmp))
    _assert_clean(rc, err, must_fail=poison)


@settings(max_examples=30)
@given(data=st.data())
def test_key_outside_the_verb_declaration_exits_2(data):
    verb = data.draw(st.sampled_from(sorted(VERBS)))
    key = data.draw(st.sampled_from(sorted(set(META) - set(verb_keys(verb)))))
    section, name = key.split(".")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.ini"
        cfg.write_text(f"[{section}]\n{name} = {META[key]}\n")
        rc, err = _run(_argv(verb, cfg, tmp))
    _assert_clean(rc, err, must_fail=True)
    assert f"[{section}] {name}: hdcam {verb} " in err


class TestIngestRejects:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        p = tmp_path / "d.csv"
        p.write_text(f"1.0,2.0,a\n3.0,{value},b\n")
        with pytest.raises(ParseError) as err:
            ingest(p, "feature_csv")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_range_overflow(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1e308,a\n-1e308,b\n")
        with pytest.raises(ParseError):
            ingest(p, "feature_csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest(tmp_path / "nope.csv", "feature_csv")

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_bytes(b"en\t\xff\xfe\n")
        with pytest.raises(ParseError):
            ingest(p, "text_corpus")


class TestSplitRejects:
    @pytest.mark.parametrize("n, fraction", [(1, 0.2), (2, 0.8), (10, 0.99)])
    def test_no_training_sample(self, n, fraction):
        with pytest.raises(ConfigError):
            train_test_indices(n, fraction, 0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ConfigError):
            ExperimentConfig(test_fraction=fraction)


class TestCliErrors:
    def _check(self, tmp_path, argv):
        rc, err = _run([*argv, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return err

    def test_one_row_dataset(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.5,a\n")
        assert "no training sample" in self._check(tmp_path, ["classify", "--data", str(p)])

    def test_nan_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.5,a\n0.5,nan,b\n")
        assert "line 2" in self._check(tmp_path, ["classify", "--data", str(p)])

    @pytest.mark.parametrize("argv", [
        ["transfer-curve", "--seed", "3"],
        ["cost-report", "--data", "x"],
        ["dim-sweep", "--dim", "512"],
        ["classify", "--bogus", "1"],
    ])
    def test_flag_the_verb_does_not_take(self, tmp_path, argv):
        assert argv[1] in self._check(tmp_path, argv)

    def test_dim_sweep_bad_dims(self, tmp_path):
        err = self._check(tmp_path, ["dim-sweep", "--dims", "512,abc"])
        assert "--dims" in err

    @pytest.mark.parametrize("text", [
        "[experiment]\nmdoe = multibit\n",
        "[analog]\ni_cell_nominal = 5\n",
        "[analog]\ngamma = -1\n",
        "[experiment]\ndim = abc\n",
        "[experiment]\ntest_fraction = 1.5\n",
        "[sensing]\nresolution = 1e-12\n",
        "[synthetic]\nkind = bogus\n",
        "[sensing]\nfloor = 1e-7\n",
    ])
    def test_bad_config(self, tmp_path, text):
        # The analog backend, because the sensing floor is checked where it meets
        # the analog params; every other case fails as the config loads.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        self._check(tmp_path, ["classify", "--backend", "analog", "--config", str(cfg)])

    @pytest.mark.parametrize("verb", ["classify", "cluster"])
    def test_sensing_floor_above_mismatch_current(self, tmp_path, verb):
        # g_cell = 1e-9 S puts one mismatch's current below the 1e-9 A floor.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[analog]\ng_cell = 1e-9\n")
        err = self._check(tmp_path, [verb, "--backend", "analog", "--config", str(cfg), "--dim", "256"])
        assert "sensing floor 1e-09 A is not well below one mismatch's current 1.6e-10 A" in err

    @pytest.mark.parametrize("scheme, kind, body", [
        ("ngram", "feature_csv", GOOD_DATA),
        ("record", "text_corpus", "en\tabcd\nfr\tdcba\nen\tabcc\n"),
    ])
    def test_scheme_cannot_encode_data(self, tmp_path, scheme, kind, body):
        p = tmp_path / "data"
        p.write_text(body)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[encoding]\nscheme = {scheme}\n")
        err = self._check(tmp_path, ["classify", "--config", str(cfg), "--data", str(p),
                                     "--kind", kind, "--dim", "128"])
        assert scheme in err and kind in err

    @pytest.mark.parametrize("verb", ["classify", "dim-sweep"])
    def test_hv_blobs_outside_cluster(self, tmp_path, verb):
        # Planted blobs are hypervectors already; no scheme encodes them.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[synthetic]\nkind = hv_blobs\n")
        width = "--dims" if verb == "dim-sweep" else "--dim"
        err = self._check(tmp_path, [verb, "--config", str(cfg), width, "128"])
        assert "hv_blobs" in err and "cluster" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**32)])
    def test_seed_outside_32_bits(self, tmp_path, seed):
        # Child seeds hash the seed as one 32-bit word, so a seed outside it is
        # rejected instead of aliasing one inside (1 and 4294967297 would
        # give the same CSV body under different headers).
        err = self._check(tmp_path, ["classify", "--dim", "256", "--seed", seed])
        assert "seed" in err and seed in err

    def test_cluster_multibit(self, tmp_path):
        # Cluster points are binary; multibit (ideal_dot) has nothing to score.
        err = self._check(tmp_path, ["cluster", "--mode", "multibit", "--dim", "256", "--seed", "1"])
        assert "multibit" in err

    def test_cluster_multibit_fails_before_encoding(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "encode_subset", lambda *args, **kwargs: calls.append(args))
        p = tmp_path / "d.csv"
        p.write_text("".join(f"0.{i},0.{9 - i},{'ab'[i % 2]}\n" for i in range(10)))
        err = self._check(tmp_path, ["cluster", "--mode", "multibit", "--dim", "256", "--data", str(p)])
        assert "multibit (ideal_dot) cannot cluster" in err
        assert calls == []

    def test_out_is_a_file(self, tmp_path):
        out = tmp_path / "afile"
        out.write_text("")
        rc, err = _run(["classify", "--dim", "256", "--out", str(out)])
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_missing_data_file(self, tmp_path):
        self._check(tmp_path, ["classify", "--data", str(tmp_path / "nope.csv")])

    def test_text_shorter_than_ngram(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("en\tab\nfr\tabcd\nen\tbbbb\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[encoding]\nscheme = ngram\nn = 3\n")
        self._check(tmp_path, ["classify", "--config", str(cfg), "--data", str(p),
                               "--kind", "text_corpus", "--dim", "128"])
