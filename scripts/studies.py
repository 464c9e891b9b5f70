"""The accuracy studies that the acceptance suite checks and the scripts write.

Each study classifies one task of presets/, synthesizing each seed's dataset
once for all its variants, and returns {variant: [accuracy at each seed]}.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from hdcam.config import load_experiment_config
from hdcam.errors import HdcError
from hdcam.experiments import run_classify, synthesize_dataset

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def preset(name, seed, dim=None):
    """The study config presets/<name>.ini, as classify reads it, at the given
    seed, and at the given dim unless it is None."""
    return load_experiment_config(PRESETS / f"{name}.ini", "classify").with_overrides(
        seed=seed, dim=dim)


def _study(name, seeds, dim, variants):
    accs = {variant: [] for variant in variants}
    for seed in seeds:
        cfg = preset(name, seed, dim)
        ds = synthesize_dataset(cfg)
        for variant, overrides in variants.items():
            accs[variant].append(run_classify(cfg.with_overrides(**overrides), ds).meta["accuracy"])
    return accs


def binary_vs_multibit(task, seeds, dim=None):
    """Binary and multibit class vectors on presets/<task>.ini."""
    return _study(task, seeds, dim, {"binary": {"mode": "binary"}, "multibit": {"mode": "multibit"}})


def shift_vs_drop(seeds, widths, dim=None):
    """Shift permutation ("shift") and bit-drop permutation ("drop<width>", one
    per width) on presets/languages.ini."""
    enc = preset("languages", 0, dim).encoding  # the same at every seed
    return _study("languages", seeds, dim, {"shift": {}, **{
        f"drop{w}": {"encoding": replace(enc, permute_mode="drop", drop_width=w)} for w in widths}})


def voltage_backends(seeds, dim=None):
    """The ideal backend and the analog backend under the calibrated and the
    uniform voltage profile, on presets/languages-10.ini."""
    return _study("languages-10", seeds, dim, {
        "ideal": {},
        "calibrated": {"backend": "analog", "profile": "calibrated"},
        "uniform": {"backend": "analog", "profile": "uniform"},
    })


def run(main, description, dim, out):
    """Parse the scripts' flags (--seeds N for seeds 0 to N-1, --dim, --out), call
    main(args) and return the exit status: 0, or 2 after printing
    `error: <message>` for an HdcError or OSError."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--seeds", type=int, default=5, metavar="N", help="run seeds 0 to N-1")
    ap.add_argument("--dim", type=int, default=dim, help="vector width")
    ap.add_argument("--out", default=out, metavar="DIR", help="output directory")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"argument --seeds: expected an integer >= 1, got {args.seeds}")
    try:
        main(args)
    except (HdcError, OSError) as exc:
        # OSError: an output could not be written, e.g. --out names a file.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
