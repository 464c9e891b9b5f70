"""Command-line experiment runner.

Verbs: classify, cluster, dim-sweep, transfer-curve, calibrate, cost-report.
Each verb reads the config keys that config.VERBS declares for it, and its
flags follow from them: --config and --out; --data and --kind where it reads
[synthetic]; --seed, --dim, --mode, --backend and --profile where it reads
that [experiment] key. dim-sweep also takes --dims. Flags override the config
file, which overrides built-in defaults; a key or flag the verb does not read
is an error (exit 2). Without --data, the [synthetic] generator supplies the
data; cluster defaults it to planted blobs, one per cluster.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args

from .config import VERBS, ExperimentConfig, load_experiment_config, save_profile, verb_keys
from .datasets import INGEST_KINDS, SyntheticSpec, ingest
from .errors import ConfigError, HdcError
from .experiments import (
    resolve_profile,
    run_classify,
    run_cluster,
    run_cost_report,
    run_dim_sweep,
    run_transfer_curve,
    synthesize_dataset,
    write_csv,
)

# [experiment] keys that a flag of the same name overrides.
OVERRIDES = ("seed", "dim", "mode", "backend", "profile")

FLAGS = {
    "--config": dict(metavar="PATH", help="INI config file"),
    "--out": dict(metavar="DIR", default="results", help="output directory"),
    "--data": dict(metavar="PATH", help="dataset file (else synthetic)"),
    "--kind": dict(choices=INGEST_KINDS, default="feature_csv", help="format of --data"),
    **{f"--{f.name}": dict(type=int, metavar="N") if f.type is int else dict(choices=get_args(f.type))
       for f in fields(ExperimentConfig) if f.name in OVERRIDES},
    "--dims": dict(default="512,1024,2048", help="comma-separated bank-aligned widths"),
}


def verb_flags(verb):
    """The flags of `verb`, derived from the keys it reads."""
    keys = verb_keys(verb)
    flags = ["--config", "--out"]
    if "synthetic.kind" in keys:
        flags += ["--data", "--kind"]
    flags += [f"--{name}" for name in OVERRIDES if f"experiment.{name}" in keys]
    if verb == "dim-sweep":
        flags.append("--dims")
    return flags


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it ends like any bad input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="hdcam", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        # No abbreviations: dim-sweep would otherwise read --dim as --dims.
        p = sub.add_parser(verb, allow_abbrev=False)
        for flag in verb_flags(verb):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _load_config(args):
    cfg = load_experiment_config(args.config, args.verb) if args.config else ExperimentConfig()
    if args.verb == "cluster" and not args.data:
        # Planted blobs, one per cluster, for the [synthetic] keys the file leaves out.
        blobs = ExperimentConfig(synthetic=SyntheticSpec(kind="hv_blobs", classes=cfg.cluster.k))
        cfg = load_experiment_config(args.config, "cluster", blobs) if args.config else blobs
    return cfg.with_overrides(**{name: getattr(args, name, None) for name in OVERRIDES})


def _load_dataset(args, cfg):
    if args.data:
        return ingest(args.data, args.kind)
    return synthesize_dataset(cfg)


def _run(args, cfg):
    """The Run of a verb that writes a CSV."""
    if args.verb == "transfer-curve":
        return run_transfer_curve(cfg)
    if args.verb == "cost-report":
        return run_cost_report(cfg)
    if args.verb == "dim-sweep":
        try:
            dims = [int(d) for d in args.dims.split(",")]
        except ValueError:
            raise ConfigError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
        return run_dim_sweep(cfg, _load_dataset(args, cfg), dims)
    runner = {"classify": run_classify, "cluster": run_cluster}[args.verb]
    return runner(cfg, _load_dataset(args, cfg))


def _summary(verb, run):
    """The lines a verb prints about its Run once the CSV is written."""
    meta = run.meta
    if verb == "classify":
        return [f"accuracy = {meta['accuracy']:.4f} over {meta['n_test']} held-out samples",
                f"in-array energy/query (search) = "
                f"{meta['cost.infer_search.hydra_energy_pj'] / meta['n_test']:.3f} pJ"]
    if verb == "cluster":
        return [f"epochs = {meta['epochs']}, converged = {meta['converged']}, "
                f"purity = {meta['purity']:.4f}"]
    if verb == "dim-sweep":
        return [f"dim {row[0]:5d}: accuracy {row[1]:.4f}, search energy/query {row[2]:.3f} pJ"
                for row in run.rows]
    if verb == "transfer-curve":
        return [f"max deviation uniform = {meta['max_deviation_uniform_a']:.3e} A, "
                f"calibrated = {meta['max_deviation_calibrated_a']:.3e} A "
                f"({meta['deviation_improvement']:.2f}x better)"]
    return [f"{row[0]:>14}: {row[2]:8.3f} pJ in-array vs {row[5]:9.3f} pJ CMOS net ({row[7]:.2f}x)"
            for row in run.rows]


def main(argv=None):
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"hdcam {args.verb} does not take {' '.join(extra)}")
        cfg = _load_config(args)
        if args.verb == "calibrate":
            profile = resolve_profile(cfg.with_overrides(profile="calibrated"))
            path = Path(args.out) / "profile.ini"
            path.parent.mkdir(parents=True, exist_ok=True)
            save_profile(profile, path)
            print("calibrated levels (far to near): "
                  + ", ".join(f"{v:.2f} V" for v in profile.levels))
        else:
            run = _run(args, cfg)
            path = Path(args.out) / f"{args.verb.replace('-', '_')}.csv"
            write_csv(path, run.meta, run.columns, run.rows)
            print("\n".join(_summary(args.verb, run)))
        print(f"wrote {path}")
    except (HdcError, OSError) as exc:
        # OSError: an output could not be written, e.g. --out names a file.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
