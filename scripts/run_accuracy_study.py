#!/usr/bin/env python3
"""Accuracy sensitivity study: binary vs multibit vectors, shift vs bit-drop
permutation, on the record and language tasks of presets/."""

import argparse
from dataclasses import replace
from pathlib import Path

from hdcam.config import load_experiment_config
from hdcam.experiments import run_classify, synthesize_dataset, write_csv

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def task_config(task, seed, dim):
    return load_experiment_config(PRESETS / f"{task}.ini", "classify").with_overrides(
        seed=seed, dim=dim)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--dim", type=int, default=2048)
    ap.add_argument("--out", default="results/accuracy_study")
    args = ap.parse_args()

    rows = []
    for task in ("records", "languages"):
        for seed in range(args.seeds):
            cfg = task_config(task, seed, args.dim)
            ds = synthesize_dataset(cfg)
            acc_b = run_classify(cfg.with_overrides(mode="binary"), ds).accuracy
            acc_m = run_classify(cfg.with_overrides(mode="multibit"), ds).accuracy
            rows.append((task, "binary_vs_multibit", "binary", seed, acc_b))
            rows.append((task, "binary_vs_multibit", "multibit", seed, acc_m))
            print(f"{task} seed {seed}: binary {acc_b:.4f}  multibit {acc_m:.4f}")

    for width in (8, 16):
        for seed in range(args.seeds):
            cfg = task_config("languages", seed, args.dim)
            ds = synthesize_dataset(cfg)
            acc_s = run_classify(cfg, ds).accuracy
            enc = replace(cfg.encoding, permute_mode="drop", drop_width=width)
            acc_d = run_classify(cfg.with_overrides(encoding=enc), ds).accuracy
            rows.append(("languages", f"drop_width_{width}", "shift", seed, acc_s))
            rows.append(("languages", f"drop_width_{width}", f"drop{width}", seed, acc_d))
            print(f"drop width {width} seed {seed}: shift {acc_s:.4f}  drop {acc_d:.4f}")

    out = Path(args.out) / "accuracy_study.csv"
    write_csv(out, {"dim": args.dim, "seeds": args.seeds},
              ("task", "study", "variant", "seed", "accuracy"), rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
