"""One timed repetition, run in a fresh interpreter.

    python3 child.py SRC RESULT_JSON MODE [HDCAM_ARGS...]

MODE is `setup` (import only), `run` (untimed-tracing CLI call) or
`trace:SPANS_JSONL` (CLI call with the benchmark's wrappers installed).
setup_s runs from this file's first statement until hdcam.cli is imported;
run_s is the wall time of hdcam.cli.main(argv) alone. The result is written
as JSON to RESULT_JSON; the CLI's own output is left on stdout.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    src, result_path, mode, *argv = sys.argv[1:]
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import hdcam.cli

    setup_s = time.perf_counter() - T0
    if Path(hdcam.cli.__file__).resolve().parent != src / "hdcam":
        sys.exit(f"imported hdcam from {hdcam.cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode.startswith("trace:"):
            from tracer import Tracer  # bench/ is sys.path[0]

            tracer = Tracer()
            tracer.install()
        t = time.perf_counter()
        with tracer.span("cli.main") if tracer else nullcontext():
            rc = hdcam.cli.main(argv)
        result["run_s"] = time.perf_counter() - t
        result["exit_code"] = rc
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(mode[len("trace:"):])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
