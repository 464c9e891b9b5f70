#!/usr/bin/env python3
"""Accuracy sensitivity study: binary vs multibit vectors, shift vs bit-drop
permutation, on the record and language tasks of presets/."""

import sys
from pathlib import Path

from hdcam.experiments import write_csv

import studies

WIDTHS = (8, 16)


def main(args):
    seeds = range(args.seeds)
    rows = []
    for task in ("records", "languages"):
        accs = studies.binary_vs_multibit(task, seeds, args.dim)
        for seed, acc_b, acc_m in zip(seeds, accs["binary"], accs["multibit"]):
            rows.append((task, "binary_vs_multibit", "binary", seed, acc_b))
            rows.append((task, "binary_vs_multibit", "multibit", seed, acc_m))
            print(f"{task} seed {seed}: binary {acc_b:.4f}  multibit {acc_m:.4f}")

    accs = studies.shift_vs_drop(seeds, WIDTHS, args.dim)
    for width in WIDTHS:
        for seed, acc_s, acc_d in zip(seeds, accs["shift"], accs[f"drop{width}"]):
            rows.append(("languages", f"drop_width_{width}", "shift", seed, acc_s))
            rows.append(("languages", f"drop_width_{width}", f"drop{width}", seed, acc_d))
            print(f"drop width {width} seed {seed}: shift {acc_s:.4f}  drop {acc_d:.4f}")

    out = Path(args.out) / "accuracy_study.csv"
    write_csv(out, {"dim": args.dim, "seeds": args.seeds},
              ("task", "study", "variant", "seed", "accuracy"), rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(studies.run(main, __doc__, dim=2048, out="results/accuracy_study"))
