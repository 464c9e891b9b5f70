"""Correctness check and output fingerprint of one CLI run.

The CSV is checked against what the benchmark generated: one row per
held-out sample (classify) or point (cluster), labels matching the input,
and the header's accuracy or purity matching the rows. The fingerprint
(CSV sha256, quality, modeled cost lines, calibrated levels) must then be
identical across every run of one workload and seed. Modeled SOT-CAM energy
and latency are simulated statistics: they belong here, never in a timing.
"""

import csv
import hashlib
from collections import Counter


class CheckError(Exception):
    """The run's output is missing, malformed or inconsistent."""


COLUMNS = {
    "classify": ["sample_index", "true_label", "predicted_label", "correct", "lta_ambiguous_flags"],
    "cluster": ["point_index", "label", "cluster"],
}


def read_csv(path):
    """(meta, column names, rows) of a CSV written by hdcam.experiments.write_csv."""
    meta = {}
    with open(path, newline="") as f:
        lines = f.read().splitlines()
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        key, sep, value = lines[body][2:].partition(" = ")
        if not sep:
            raise CheckError(f"malformed header line {body + 1}: {lines[body]!r}")
        meta[key] = value
        body += 1
    table = list(csv.reader(lines[body:]))
    if not table:
        raise CheckError("no column header")
    return meta, table[0], table[1:]


def expected_rows(workload, n_samples):
    """Held-out size of the seeded split (classify) or every point (cluster)."""
    if workload.verb == "cluster":
        return n_samples
    return max(1, int(round(n_samples * workload.ini["experiment"]["test_fraction"])))


def _purity(rows):
    members = {}
    for _, label, k in rows:
        members.setdefault(k, Counter())[label] += 1
    return sum(c.most_common(1)[0][1] for c in members.values()) / len(rows)


def check_csv(path, workload, labels):
    """Validate one run's CSV against the generated labels; return its fingerprint."""
    try:
        meta, columns, rows = read_csv(path)
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None
    if columns != COLUMNS[workload.verb]:
        raise CheckError(f"unexpected columns {columns}")
    want = expected_rows(workload, len(labels))
    if len(rows) != want:
        raise CheckError(f"{len(rows)} rows, expected {want}")
    if any(len(r) != len(columns) for r in rows):
        raise CheckError("row with the wrong number of fields")
    try:
        index = [int(r[0]) for r in rows]
    except ValueError:
        raise CheckError("non-integer row index") from None
    if len(set(index)) != len(index) or not all(0 <= i < len(labels) for i in index):
        raise CheckError("row indices repeat or fall outside the input")
    if any(r[1] != labels[i] for r, i in zip(rows, index)):
        raise CheckError("a row's label differs from the generated input")
    key = workload.quality_key
    try:
        quality = float(meta[key])
    except (KeyError, ValueError):
        raise CheckError(f"header has no numeric {key}") from None
    if workload.verb == "classify":
        if any(r[3] != str(int(r[1] == r[2])) for r in rows):
            raise CheckError("a row's correct flag disagrees with its labels")
        recomputed = sum(r[3] == "1" for r in rows) / len(rows)
    else:
        recomputed = _purity(rows)
    if abs(recomputed - quality) > 1e-9:
        raise CheckError(f"header {key} {quality} but rows give {recomputed}")
    if quality < 2.0 / workload.n_classes:
        raise CheckError(f"{key} {quality} is not clearly above chance")
    costs = {k: v for k, v in meta.items() if k.startswith("cost.") and ".hydra_" in k}
    if not costs:
        raise CheckError("header has no cost.*.hydra_* lines")
    fp = {"rows": len(rows), key: quality, "csv_sha256": _sha256(path), **costs}
    if workload.backend == "analog":
        if "profile.levels" not in meta:
            raise CheckError("analog run without profile.levels")
        fp["profile.levels"] = meta["profile.levels"]
    return fp


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()
