"""Byte-identity gate: small CLI runs must write exactly the recorded CSV bytes.

Each case is one small `hdcam` run under tmp_path (classify and cluster at
--dim 256); the test compares the sha256 of the whole output file (CSV header
block and body, or the calibrated profile.ini) with a constant recorded
before the per-vector types were replaced by rows (the ingested feature CSV
cases: before feature data became one matrix; the ragged text corpus cases:
before the n-gram encoder took blocks of sequences; the verb cases: before
`Rng` became a function returning a numpy Generator). A change that moves any
byte, whether an accuracy, a cost total, a profile level or one label, fails
here. Re-record a constant only for a deliberate change of output, and say
which and why where the change is described.
"""

import hashlib

import numpy as np
import pytest

from hdcam.cli import main

LANGUAGES = """
[encoding]
scheme = ngram
n = {n}
{extra}
[synthetic]
kind = languages
samples = 96
languages = 3
text_length = 41
"""

RECORD_DATA = """
[synthetic]
kind = records
samples = 150
classes = 4
features = 6
noise = 0.2
"""

RECORDS = "[experiment]\nretrain_epochs = {epochs}\n" + RECORD_DATA

# Twice the corpus of LANGUAGES, in 6 languages, retrained twice: a dot-scored
# n-gram retrain that moves 12 samples.
LANGUAGES_RETRAIN = """
[experiment]
retrain_epochs = 2

[encoding]
scheme = ngram
n = 3
permute_mode = drop

[synthetic]
kind = languages
samples = 192
languages = 6
text_length = 41
"""

# name -> (verb, config text, extra flags, CSV name, sha256 of the CSV)
CASES = {
    "ngram-shift-binary": (
        "classify", LANGUAGES.format(n=3, extra=""), [], "classify.csv",
        "50102db17107c4b94fc073dd77f8325cc7e8a59c227cde1f9af38f7c61b5daf6",
    ),
    "ngram-drop-multibit": (
        "classify", LANGUAGES.format(n=3, extra="permute_mode = drop\n"), ["--mode", "multibit"],
        "classify.csv",
        "d136eebedf3809c2fd2b0e73f64cb47c9c28d39ade20f8e41c419fe3f9682e1b",
    ),
    # Drop width 16 at n = 4: six drop passes of two tail bytes per window.
    "ngram-drop16-multibit": (
        "classify", LANGUAGES.format(n=4, extra="permute_mode = drop\ndrop_width = 16\n"),
        ["--mode", "multibit"], "classify.csv",
        "0acf4c8ab55730aac12cd6427b73ec6001554b88ec58e4d424f97e7549548d2b",
    ),
    "ngram-drop-multibit-retrain": (
        "classify", LANGUAGES_RETRAIN, ["--mode", "multibit"], "classify.csv",
        "264e8e21c243d9a3269fe8a47e65e457ff46d89a344a88b3ce57450453707a01",
    ),
    "record-analog-calibrated": (
        "classify", RECORDS.format(epochs=0), ["--backend", "analog", "--profile", "calibrated"],
        "classify.csv",
        "a022e8b29c0882f277eaa33580f3371019c4e97374f3f09d3a2eb413a1ec140b",
    ),
    "record-retrain-2": (
        "classify", RECORDS.format(epochs=2), [], "classify.csv",
        "55aac1f3811c9caddeb42dd79cee4a2c89903b74d2e4cde07fa466cd9349028c",
    ),
    "record-multibit": (
        "classify", RECORDS.format(epochs=1), ["--mode", "multibit"], "classify.csv",
        "b30cface351c918aaf67601e1a5a163de6881880ed9568a6a1bec9584ee5f1f8",
    ),
    "cluster-analog": (
        "cluster", "[cluster]\nk = 3\nmax_epochs = 4\n", ["--backend", "analog"], "cluster.csv",
        "3f0a314103a757cecba0722e28d157b42f9b49bf5cdc9f0d33f0edb72800c52c",
    ),
    # Encoded record points handed to `cluster` on the ideal backend.
    "cluster-ideal-records": (
        "cluster", "[cluster]\nk = 4\nmax_epochs = 4\n" + RECORD_DATA, [],
        "cluster.csv",
        "a6fdd79d5b3ca7f0706665de1a3192c0364446c1cc822eb868e0bdc63d6060ce",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_csv_bytes(tmp_path, name):
    verb, text, flags, csv_name, digest = CASES[name]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [verb, "--config", str(cfg), "--out", str(out), "--dim", "256", "--seed", "5", *flags]
    assert main(argv) == 0
    assert hashlib.sha256((out / csv_name).read_bytes()).hexdigest() == digest


# name -> (argv without --out, config text or None, output file, sha256 of it)
# for the verbs the cases above do not run. transfer-curve and calibrate read
# the bank placement order; dim-sweep reads the train/test split at each width.
VERB_CASES = {
    "transfer-curve": (
        ["transfer-curve"], None, "transfer_curve.csv",
        "8cc81aa2f839aafb0fdfebbcfdb7545f328a247445fa382eff4e3ce717f66ac8",
    ),
    "calibrate": (
        ["calibrate"], None, "profile.ini",
        "6e9034be8d660f68bb024af210daf178341eec6738dfa1b8cb007d07f1aee1e1",
    ),
    "cost-report": (
        ["cost-report"], None, "cost_report.csv",
        "396865f1b9f13a72cf987c29750758d9a26f35e83fcb0730be072c3bae58fac3",
    ),
    "dim-sweep": (
        ["dim-sweep", "--dims", "128,256", "--seed", "5"],
        RECORDS.format(epochs=1), "dim_sweep.csv",
        "1e2768d6d7956e6dec3b724742907f755a4854d3265bbb67c753d8341fb5de3c",
    ),
    "dim-sweep-analog": (
        ["dim-sweep", "--dims", "128,256", "--seed", "5", "--backend", "analog"],
        RECORDS.format(epochs=1), "dim_sweep.csv",
        "b0e3221e9129f64c25a9822e5dc6d6b54a140bfcffe4763aac60e79d3e81b5e9",
    ),
}


@pytest.mark.parametrize("name", VERB_CASES)
def test_verb_output_bytes(tmp_path, name):
    argv, text, out_name, digest = VERB_CASES[name]
    if text is not None:
        (tmp_path / "cfg.ini").write_text(text)
        argv = [*argv, "--config", str(tmp_path / "cfg.ini")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256((out / out_name).read_bytes()).hexdigest() == digest


# Half the ragged corpus is held out: 30 queries, enough that a drop-mode
# tail drawn out of order moves a prediction.
NGRAM = """
[experiment]
test_fraction = 0.5

[encoding]
scheme = ngram
n = 3
{extra}"""

# name -> (kind of the data file, config text or None, extra flags, sha256 of the
# CSV) for classify on an ingested file: the feature CSV or the ragged text corpus below
INGEST_CASES = {
    "feature-csv-ideal": (
        "feature_csv", None, [], "ffb33131bb2b58fe6a220ba3b5fc620fad8799815a1751f92196738886d7c5c1",
    ),
    "feature-csv-analog-calibrated": (
        "feature_csv", None, ["--backend", "analog", "--profile", "calibrated"],
        "c1d404a890e67ef1f3f2bc1f42e42322e9d7ba939d16faa12798c27d8cb09cb5",
    ),
    "ragged-text-shift-binary": (
        "text_corpus", NGRAM.format(extra=""), [],
        "9b55c7af218a31a52581c5297015a92fd78f014789a71720b846025ccef4e1d6",
    ),
    "ragged-text-drop-multibit": (
        "text_corpus", NGRAM.format(extra="permute_mode = drop\n"), ["--mode", "multibit"],
        "200f1171a9ae14e1b771f758057dd41cfa12224aac106d06e58aaa0278fed40c",
    ),
}


def _write_feature_csv(path):
    """120 rows of 5 features in %.6f with 4 labels, drawn from a fixed numpy seed.

    Centres and spreads differ per feature, so the per-feature ranges that
    normalise the matrix differ too.
    """
    gen = np.random.default_rng(20251)
    classes = np.arange(120) % 4
    centres = gen.uniform(-5.0, 5.0, size=(4, 5))
    rows = centres[classes] + gen.normal(0.0, 0.8, size=(120, 5)) * np.arange(1, 6)
    path.write_text(
        "".join(",".join(f"{v:.6f}" for v in row) + f",c{c}\n" for row, c in zip(rows, classes))
    )


def _write_text_corpus(path):
    """60 label<TAB>text lines in 3 labels, drawn from a fixed numpy seed.

    Each label has its own letter frequencies. Line lengths are drawn from
    {9, 14, 23}, so the encoder blocks are runs of equal-length lines, cut
    wherever the line length changes.
    """
    gen = np.random.default_rng(20252)
    letters = np.array(list("abcdefgh"))
    freqs = gen.dirichlet(np.full(len(letters), 0.5), size=3)
    lines = []
    for i, length in enumerate(gen.choice([9, 14, 23], size=60)):
        text = "".join(gen.choice(letters, size=length, p=freqs[i % 3]))
        lines.append(f"t{i % 3}\t{text}\n")
    path.write_text("".join(lines))


WRITERS = {"feature_csv": _write_feature_csv, "text_corpus": _write_text_corpus}


@pytest.mark.parametrize("name", INGEST_CASES)
def test_ingested_csv_bytes(tmp_path, name):
    kind, text, flags, digest = INGEST_CASES[name]
    data = tmp_path / "data"
    WRITERS[kind](data)
    if text is not None:
        (tmp_path / "cfg.ini").write_text(text)
        flags = ["--config", str(tmp_path / "cfg.ini"), *flags]
    out = tmp_path / "out"
    argv = ["classify", "--data", str(data), "--kind", kind, "--out", str(out),
            "--dim", "256", "--seed", "5", *flags]
    assert main(argv) == 0
    assert hashlib.sha256((out / "classify.csv").read_bytes()).hexdigest() == digest


# name of a case above -> what the verb prints, with its --out directory as <out>.
STDOUT = {
    "ngram-shift-binary": "accuracy = 0.7368 over 19 held-out samples\n"
                          "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "ngram-drop-multibit": "accuracy = 0.7895 over 19 held-out samples\n"
                           "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "ngram-drop16-multibit": "accuracy = 0.5789 over 19 held-out samples\n"
                             "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "ngram-drop-multibit-retrain": "accuracy = 0.6842 over 38 held-out samples\n"
                                   "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "record-analog-calibrated": "accuracy = 0.8333 over 30 held-out samples\n"
                                "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "record-retrain-2": "accuracy = 0.8000 over 30 held-out samples\n"
                        "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "record-multibit": "accuracy = 0.7667 over 30 held-out samples\n"
                       "in-array energy/query (search) = 1.831 pJ\nwrote <out>/classify.csv\n",
    "cluster-analog": "epochs = 2, converged = True, purity = 1.0000\nwrote <out>/cluster.csv\n",
    "cluster-ideal-records": "epochs = 4, converged = False, purity = 0.6667\n"
                             "wrote <out>/cluster.csv\n",
    "transfer-curve": "max deviation uniform = 8.108e-07 A, calibrated = 1.999e-07 A (4.06x better)\n"
                      "wrote <out>/transfer_curve.csv\n",
    "calibrate": "calibrated levels (far to near): 1.10 V, 1.06 V, 1.01 V, 0.97 V\n"
                 "wrote <out>/profile.ini\n",
    "cost-report": "      addition:   41.080 pJ in-array vs   883.900 pJ CMOS net (21.52x)\n"
                   "   permutation:    0.752 pJ in-array vs   415.660 pJ CMOS net (552.74x)\n"
                   "multiplication:  569.000 pJ in-array vs   828.470 pJ CMOS net (1.46x)\n"
                   "        search:   14.650 pJ in-array vs  4139.700 pJ CMOS net (282.57x)\n"
                   "wrote <out>/cost_report.csv\n",
    "dim-sweep": "dim   128: accuracy 0.8333, search energy/query 0.916 pJ\n"
                 "dim   256: accuracy 0.9000, search energy/query 1.831 pJ\nwrote <out>/dim_sweep.csv\n",
    "dim-sweep-analog": "dim   128: accuracy 0.8333, search energy/query 0.916 pJ\n"
                        "dim   256: accuracy 0.9000, search energy/query 1.831 pJ\n"
                        "wrote <out>/dim_sweep.csv\n",
}


@pytest.mark.parametrize("name", [*CASES, *VERB_CASES])
def test_verb_stdout(tmp_path, capsys, name):
    out = tmp_path / "out"
    if name in CASES:
        verb, text, flags, _, _ = CASES[name]
        argv = [verb, "--dim", "256", "--seed", "5", *flags]
    else:
        argv, text, _, _ = VERB_CASES[name]
    if text is not None:
        (tmp_path / "cfg.ini").write_text(text)
        argv = [*argv, "--config", str(tmp_path / "cfg.ini")]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "<out>") == STDOUT[name]
