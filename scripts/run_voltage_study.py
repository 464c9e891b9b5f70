#!/usr/bin/env python3
"""Voltage-scaling study: match-line transfer curves for the uniform and
calibrated profiles, then end-to-end classification with the ideal, analog
calibrated and analog uniform backends on presets/languages-10.ini."""

import argparse
from pathlib import Path

from hdcam.config import load_experiment_config
from hdcam.experiments import run_classify, run_transfer_curve, synthesize_dataset, write_csv

PRESET = Path(__file__).resolve().parents[1] / "presets" / "languages-10.ini"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--dim", type=int, default=1024)
    ap.add_argument("--out", default="results/voltage_study")
    args = ap.parse_args()
    out = Path(args.out)

    task = load_experiment_config(PRESET, "classify")
    _, meta = run_transfer_curve(task, out / "transfer_curve.csv")
    print(f"max deviation: uniform {meta['max_deviation_uniform_a']:.3e} A, "
          f"calibrated {meta['max_deviation_calibrated_a']:.3e} A "
          f"({meta['deviation_improvement']:.2f}x)")

    rows = []
    sums = {"ideal": 0.0, "calibrated": 0.0, "uniform": 0.0}
    for seed in range(args.seeds):
        cfg = task.with_overrides(dim=args.dim, seed=seed)
        ds = synthesize_dataset(cfg)
        accs = {
            "ideal": run_classify(cfg, ds).accuracy,
            "calibrated": run_classify(
                cfg.with_overrides(backend="analog", profile="calibrated"), ds).accuracy,
            "uniform": run_classify(
                cfg.with_overrides(backend="analog", profile="uniform"), ds).accuracy,
        }
        for name, acc in accs.items():
            rows.append((seed, name, acc))
            sums[name] += acc
        print(f"seed {seed}: " + "  ".join(f"{k} {v:.4f}" for k, v in accs.items()))

    print("means: " + "  ".join(f"{k} {v / args.seeds:.4f}" for k, v in sums.items()))
    write_csv(out / "backend_accuracy.csv", {"dim": args.dim, "seeds": args.seeds},
              ("seed", "backend", "accuracy"), rows)
    print(f"wrote {out / 'backend_accuracy.csv'}")


if __name__ == "__main__":
    main()
