"""Per-layer tracing installed from outside the program.

Wrappers replace hdcam's public functions in every hdcam module that holds
them (cli, experiments and learner import names directly, so patching the
defining module alone would miss calls). Functions called a moderate number
of times get a span each: name, start, end, parent, under one run id. Hot
leaf functions (vector algebra, cost charging) only count calls, keyed by the
innermost open span, because a span per call would dominate their cost.
Spans stay in memory until dump().
"""

import functools
import importlib
import json
import sys
import uuid
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _bank_rows(args, kwargs, result):
    mismatch = args[0] if args else kwargs["mismatch"]
    shape = np.shape(mismatch)[:-1]
    return {"cam.solve_bank_currents.bank_rows": int(np.prod(shape)) if shape else 1}


def _lta_batches(args, kwargs, result):
    return {"lta.batches": len(result.trace), "lta.ambiguous": result.ambiguous_flags}


# Spanned functions, by path under hdcam, with an optional per-call measurement.
SPANS = {
    "datasets.ingest": None,
    "experiments.encode_subset": None,
    "experiments.write_csv": None,
    "encoder.encode_ngram": None,
    "encoder.encode_record": None,
    "learner.train": None,
    "learner.retrain": None,
    "learner.predict": None,
    "learner.cluster": None,
    "cam.calibrate_profile": None,
    "cam.transfer_curve": None,
    "cam.search_analog": None,
    "cam.analog_currents": None,
    "cam.solve_bank_currents": _bank_rows,
    "lta.argmin_serial": _lta_batches,
}

# Counted functions: metric name -> path under hdcam.
COUNTERS = {
    "hvcore.bind": "hvcore.bind",
    "hvcore.bundle_add": "hvcore.bundle_add",
    "hvcore.bundle_sub": "hvcore.bundle_sub",
    "hvcore.binarize": "hvcore.binarize",
    "hvcore.permute_shift": "hvcore.permute_shift",
    "hvcore.permute_drop": "hvcore.permute_drop",
    "cost.charge": "cost.CostLedger.charge",
}


class Tracer:
    """Spans, call counts and per-call statistics of one traced run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []  # (id, parent id or None, name, start, end)
        self.calls = Counter()  # (name, innermost open span name) -> calls
        self.stats = Counter()
        self._stack = []  # (id, name) of open spans
        self._next_id = 0
        self._patches = []

    @contextmanager
    def span(self, name):
        """Record one span around a block."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def timed(self, name, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                tracer.stats.update(measure(args, kwargs, result))
            return result

        return wrapper

    def counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            tracer.calls[name, stack[-1][1] if stack else ""] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every loaded hdcam module (and class) that holds a traced function."""
        for name, measure in SPANS.items():
            self._patch(name, lambda fn, name=name, m=measure: self.timed(name, fn, m))
        for name, path in COUNTERS.items():
            self._patch(path, lambda fn, name=name: self.counted(name, fn))

    def _patch(self, path, make_wrapper):
        *owner_path, attr = path.split(".")
        owner = importlib.import_module("hdcam." + owner_path[0])
        for part in owner_path[1:]:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        holders = [owner] + [
            m for n, m in list(sys.modules.items())
            if (n == "hdcam" or n.startswith("hdcam.")) and m is not owner
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def dump(self, path):
        """Write the run as JSON lines: one header, then one line per span."""
        with open(path, "w") as f:
            header = {
                "run_id": self.run_id,
                "calls": [[n, p, c] for (n, p), c in sorted(self.calls.items())],
                "stats": dict(self.stats),
            }
            f.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"run_id": self.run_id, "id": sid, "parent": parent,
                                    "name": name, "start": start, "end": end}) + "\n")


def load(path):
    """(header, spans) of a dumped run; spans as (id, parent, name, start, end)."""
    with open(path) as f:
        header = json.loads(f.readline())
        spans = []
        for line in f:
            s = json.loads(line)
            if s["run_id"] != header["run_id"]:
                raise ValueError(f"span {s['id']} belongs to run {s['run_id']}")
            spans.append((s["id"], s["parent"], s["name"], s["start"], s["end"]))
    return header, spans


def self_times(spans):
    """name -> [calls, total seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = Counter()
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for sid, _, name, start, end in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[sid]
    return out


def layer_metrics(header, spans):
    """Flat `<module>.<function>.<stat>` metrics of one traced run."""
    metrics = {}
    for name, (calls, _total, self_s) in self_times(spans).items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = self_s
    for name in SPANS:
        metrics.setdefault(f"{name}.calls", 0)
        metrics.setdefault(f"{name}.s", 0.0)
    for name in COUNTERS:
        metrics[f"{name}.calls"] = 0
    updates = 0
    for name, parent, count in header["calls"]:
        metrics[f"{name}.calls"] += count
        if name == "hvcore.bundle_sub" and parent == "learner.retrain":
            updates += count
    metrics["learner.retrain.updates"] = updates
    stats = header["stats"]
    metrics["cam.solve_bank_currents.bank_rows"] = stats.get("cam.solve_bank_currents.bank_rows", 0)
    batches = stats.get("lta.batches", 0)
    metrics["lta.batches"] = batches
    metrics["lta.ambiguous_ratio"] = stats.get("lta.ambiguous", 0) / batches if batches else 0.0
    return metrics
