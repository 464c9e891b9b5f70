import hashlib
import json
from dataclasses import replace
from pathlib import Path

import workloads


def _digest(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_every_workload_is_byte_stable_for_a_seed(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        a, b, c = (tmp_path / f"{name}-{i}" for i in range(3))
        for d in (a, b, c):
            d.mkdir()
        workloads.write_inputs(w, 5, a)
        workloads.write_inputs(w, 5, b)
        workloads.write_inputs(w, 6, c)
        assert _digest(a) == _digest(b)
        assert _digest(a) != _digest(c)


# Pinned digests: a change here changes every workload's inputs.
SMALL_TEXT = "e6ac55cf1fde7d44"
SMALL_FEATURES = "65cc26d409acc58a"


def test_generator_output_is_pinned(tmp_path):
    text = replace(workloads.WORKLOADS["text-ngram"],
                   data=workloads.TextSpec(lines=6, languages=3, length=12, concentration=0.8))
    feats = replace(workloads.WORKLOADS["record-analog"],
                    data=workloads.FeatureSpec(rows=5, classes=2, features=3, noise=0.2))
    for w, want in ((text, SMALL_TEXT), (feats, SMALL_FEATURES)):
        d = tmp_path / w.name
        d.mkdir()
        data_path, _, _ = workloads.write_inputs(w, 3, d)
        assert hashlib.sha256(data_path.read_bytes()).hexdigest()[:16] == want


def test_benchmark_json_lists_every_workload_with_its_reason():
    root = Path(workloads.__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert spec["workloads"] == want
