#!/usr/bin/env python3
"""Voltage-scaling study: match-line transfer curves for the uniform and
calibrated profiles, then end-to-end classification with the ideal, analog
calibrated and analog uniform backends on presets/languages-10.ini."""

import sys
from pathlib import Path

from hdcam.experiments import run_transfer_curve, write_csv

import studies


def main(args):
    out = Path(args.out)
    seeds = range(args.seeds)
    # The classification runs first, so a bad --dim fails before any file is written.
    accs = studies.voltage_backends(seeds, args.dim)

    curve = run_transfer_curve(studies.preset("languages-10", 0))
    write_csv(out / "transfer_curve.csv", curve.meta, curve.columns, curve.rows)
    print(f"max deviation: uniform {curve.meta['max_deviation_uniform_a']:.3e} A, "
          f"calibrated {curve.meta['max_deviation_calibrated_a']:.3e} A "
          f"({curve.meta['deviation_improvement']:.2f}x)")

    for i, seed in enumerate(seeds):
        print(f"seed {seed}: " + "  ".join(f"{k} {v[i]:.4f}" for k, v in accs.items()))
    print("means: " + "  ".join(f"{k} {sum(v) / len(v):.4f}" for k, v in accs.items()))
    write_csv(out / "backend_accuracy.csv", {"dim": args.dim, "seeds": args.seeds},
              ("seed", "backend", "accuracy"),
              [(seed, k, v[i]) for i, seed in enumerate(seeds) for k, v in accs.items()])
    print(f"wrote {out / 'backend_accuracy.csv'}")


if __name__ == "__main__":
    sys.exit(studies.run(main, __doc__, dim=1024, out="results/voltage_study"))
