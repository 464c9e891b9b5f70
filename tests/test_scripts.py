"""The experiment scripts, run as a user runs them, the README's library
sketch, and its table of the abstract's claims."""

import ast
import csv
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import studies

ROOT = Path(__file__).resolve().parents[1]
SEEDS = [0]
DIM = 256
NUMBER = r"(\d[\d.]*)(?:×|\\?%)"  # 21.5×, 3% and the abstract's 3\%


def _run(script, *flags, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"run_{script}_study.py"), *flags],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def _csv(script, out):
    """{leading columns: [(seed, accuracy), ...]} of a script's CSV run at SEEDS and DIM."""
    proc = _run(script, "--seeds", str(len(SEEDS)), "--dim", str(DIM), "--out", str(out), cwd=out)
    assert proc.returncode == 0, proc.stderr
    name = {"accuracy": "accuracy_study.csv", "voltage": "backend_accuracy.csv"}[script]
    with open(out / name, newline="") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))[1:]
    got = defaultdict(list)
    for row in rows:
        # accuracy_study.csv: task, study, variant, seed; backend_accuracy.csv: seed, backend.
        seed, key = (row[3], tuple(row[:3])) if script == "accuracy" else (row[0], row[1])
        got[key].append((int(seed), float(row[-1])))
    return dict(got)


def _per_seed(accs):
    return [(seed, acc) for seed, acc in zip(SEEDS, accs)]


def test_accuracy_study_writes_the_studies_accuracies(tmp_path):
    want = {}
    for task in ("records", "languages"):
        for variant, accs in studies.binary_vs_multibit(task, SEEDS, DIM).items():
            want[task, "binary_vs_multibit", variant] = _per_seed(accs)
    drop = studies.shift_vs_drop(SEEDS, (8, 16), DIM)
    for width in (8, 16):
        for variant in ("shift", f"drop{width}"):
            want["languages", f"drop_width_{width}", variant] = _per_seed(drop[variant])
    assert _csv("accuracy", tmp_path) == want


def test_voltage_study_writes_the_studies_accuracies(tmp_path):
    want = {backend: _per_seed(accs)
            for backend, accs in studies.voltage_backends(SEEDS, DIM).items()}
    assert _csv("voltage", tmp_path) == want
    assert (tmp_path / "transfer_curve.csv").is_file()


@pytest.mark.parametrize("script, flags", [
    ("accuracy", ("--seeds", "0")),
    ("voltage", ("--seeds", "0")),
    ("accuracy", ("--dim", "100")),
    ("voltage", ("--dim", "100")),
])
def test_bad_input_exits_2_before_writing(tmp_path, script, flags):
    out = tmp_path / "out"
    proc = _run(script, *flags, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_readme_library_sketch_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _claims_table():
    readme = (ROOT / "README.md").read_text()
    return readme.split("\n## The abstract's claims\n", 1)[1].split("\n## ", 1)[0]


def test_claims_table_names_only_defined_tests():
    ids = set(re.findall(r"(tests/\w+\.py)::(test_\w+)", _claims_table()))
    assert len(ids) >= 5
    for path, name in ids:
        tree = ast.parse((ROOT / path).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, f"README names {path}::{name}, which is not defined"


def test_claims_table_lists_every_number_of_the_abstract():
    abstract = set(re.findall(NUMBER, (ROOT / "PAPER.md").read_text()))
    assert len(abstract) >= 10
    assert abstract <= set(re.findall(NUMBER, _claims_table()))
