"""Byte-identity gate: small CLI runs must write exactly the recorded CSV bytes.

Each case is one `hdcam` run at --dim 256 under tmp_path; the test compares
the sha256 of the whole CSV (header block, body) with a constant recorded
before the per-vector types were replaced by rows. A change that moves any
byte, whether an accuracy, a cost total, a profile level or one label, fails
here. Re-record a constant only for a deliberate change of output, and say
which and why where the change is described.
"""

import hashlib

import pytest

from hdcam.cli import main

LANGUAGES = """
[encoding]
scheme = ngram
n = 3
{extra}
[synthetic]
kind = languages
samples = 96
languages = 3
text_length = 41
"""

RECORDS = """
[experiment]
retrain_epochs = {epochs}

[synthetic]
kind = records
samples = 150
classes = 4
features = 6
noise = 0.2
"""

# name -> (verb, config text, extra flags, CSV name, sha256 of the CSV)
CASES = {
    "ngram-shift-binary": (
        "classify", LANGUAGES.format(extra=""), [], "classify.csv",
        "50102db17107c4b94fc073dd77f8325cc7e8a59c227cde1f9af38f7c61b5daf6",
    ),
    "ngram-drop-multibit": (
        "classify", LANGUAGES.format(extra="permute_mode = drop\n"), ["--mode", "multibit"],
        "classify.csv",
        "d136eebedf3809c2fd2b0e73f64cb47c9c28d39ade20f8e41c419fe3f9682e1b",
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
    "cluster-analog": (
        "cluster", "[cluster]\nk = 3\nmax_epochs = 4\n", ["--backend", "analog"], "cluster.csv",
        "3f0a314103a757cecba0722e28d157b42f9b49bf5cdc9f0d33f0edb72800c52c",
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
