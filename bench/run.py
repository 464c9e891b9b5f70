"""Benchmark of the hdcam CLI: host time of the simulator, one workload per call.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition runs one `hdcam.cli.main(argv)` in a fresh interpreter, one
child at a time, so every per-invocation cost a CLI user pays (imports,
voltage calibration) is inside the measurement. Inputs are generated from
--seed by bench/workloads.py; CLI output goes to a temporary directory inside
bench/. With --trace 0 the last stdout line carries the end-to-end metrics
(medians over the repetitions); with --trace 1 it carries the per-layer
metrics of one extra traced repetition. A full record (environment, samples,
fingerprint) and the traced run's spans are written to bench/out/. Any failed
check makes the exit code non-zero. `--workload all` runs every workload in
turn, each ending with its own result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import fingerprint
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
OUT = BENCH / "out"

MIN_REPS = 3
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 120
THREADS = "1"  # BLAS/OpenMP threads per child; never more than nproc


class ChildError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env.pop("PYTHONPATH", None)
    return env


def run_child(work, mode, argv=()):
    """Run child.py once and return its JSON result."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(SRC), str(result_path), mode, *argv]
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    if result.get("exit_code", 0) != 0:
        raise ChildError(f"hdcam exited {result['exit_code']}: {proc.stderr.strip()[-2000:]}")
    return result


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


class Session:
    """Repetitions of one workload and seed, with their checks."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.data_path, self.ini_path, self.labels = workloads.write_inputs(workload, seed, work)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.fingerprints = []

    def rep(self, mode="run"):
        """One checked CLI repetition; returns the child's result or None on failure."""
        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        argv = workloads.cli_argv(self.workload, self.data_path, self.ini_path, self.seed, out)
        try:
            result = run_child(self.work, mode, argv)
            csv_path = out / f"{self.workload.verb}.csv"
            fp = fingerprint.check_csv(csv_path, self.workload, self.labels)
        except (ChildError, fingerprint.CheckError) as exc:
            return self._fail(str(exc))
        if self.fingerprints and fp != self.fingerprints[0]:
            return self._fail("fingerprint differs from the first repetition")
        self.fingerprints.append(fp)
        return result

    def _fail(self, reason):
        self.failed += 1
        self.failures.append(f"repetition {self.attempted}: {reason}")


def measure(session, seconds):
    """Untraced repetitions for about `seconds`, at least MIN_REPS; stops at a failure."""
    reps = []
    start = time.perf_counter()
    while True:
        result = session.rep()
        if result is None:
            return reps
        reps.append(result)
        elapsed = time.perf_counter() - start
        if session.attempted >= MIN_REPS and elapsed * (1 + 1 / session.attempted) > seconds:
            return reps


def traced(session, untraced_run_s, spans_path):
    """Per-layer metrics of one traced repetition, plus the tracing overhead."""
    result = session.rep("trace:" + str(spans_path))
    if result is None:
        return None, None, None
    header, spans = tracer.load(spans_path)
    metrics = tracer.layer_metrics(header, spans)
    metrics["trace.overhead_s"] = result["run_s"] - untraced_run_s
    if session.workload.backend == "ideal":
        busy = {k: v for k, v in metrics.items() if k.startswith("cam.") and v}
        if busy:
            session.failures.append(f"cam layer active on an ideal-backend workload: {busy}")
    return metrics, tracer.self_times(spans), result["run_s"]


def layer_report(times, run_s):
    """Per-layer self time and its share of the traced run_s, then per module."""
    lines = [f"{'layer':32} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%run':>8}"]
    modules = {}
    for name, (calls, total, self_s) in sorted(times.items(), key=lambda kv: -kv[1][2]):
        share = 100 * self_s / run_s
        lines.append(f"{name:32} {calls:9d} {total:9.3f} {self_s:9.3f} {share:7.1f}%")
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s
    lines.append("module self-time share of run_s: " + ", ".join(
        f"{m} {100 * s / run_s:.1f}%" for m, s in sorted(modules.items(), key=lambda kv: -kv[1])))
    return "\n".join(lines)


def environment():
    return {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(THREADS),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace, spec)
             for name in names]
    return max(codes)


def run_workload(workload, seed, seconds, trace, spec):
    """Measure one workload; print its report and, last, its JSON result line."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    (BENCH / "tmp").mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "tmp") as tmp:
        work = Path(tmp)
        try:
            run_child(work, "setup")  # warm-up: bytecode and page caches
            setup = [run_child(work, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        except ChildError as exc:
            print(f"error: cannot start hdcam: {exc}", file=sys.stderr)
            return 2
        session = Session(workload, seed, work)
        reps = measure(session, seconds)
        if not reps:
            print("error: every repetition failed:\n  " + "\n  ".join(session.failures),
                  file=sys.stderr)
            return 1
        samples = {
            "run_s": [r["run_s"] for r in reps],
            "setup_s": setup + [r["setup_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        quality = session.fingerprints[0][workload.quality_key]
        e2e = {k: statistics.median(v) for k, v in samples.items()} | {"quality": quality}
        layers = None
        if trace:
            spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl"
            layers, times, traced_run_s = traced(session, e2e["run_s"], spans_path)

    print(f"workload {workload.name} seed {seed}: {session.attempted} CLI runs, "
          f"{session.failed} failed")
    for name, values in samples.items():
        s = summary(values)
        print(f"  {name:12} median {s['median']:.4f} {units[name]}  "
              f"(min {s['min']:.4f}, max {s['max']:.4f}, n={s['n']})")
    print(f"  {'quality':12} {quality:.4f} {units['quality']} ({workload.quality_key}, "
          f"identical in every run)")
    if layers is not None:
        print(f"traced run: run_s {traced_run_s:.4f} s; per-layer self time:")
        print(layer_report(times, traced_run_s))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = (layers if trace else e2e) or {}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing and source:
        session.failures.append(f"metrics not measured: {missing}")
    for failure in session.failures:
        print(f"  FAILED {failure}")

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(), "samples": samples,
        "end_to_end": e2e, "per_layer": layers, "fingerprint": session.fingerprints[0],
        "failures": session.failures,
    }
    record_path = OUT / f"{workload.name}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    correct = not session.failures
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
