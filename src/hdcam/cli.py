"""Command-line experiment runner.

Verbs: classify, cluster, dim-sweep, transfer-curve, calibrate, cost-report.
Shared flags override the config file, which overrides built-in defaults.
Without --data, classify and cluster fall back to the seeded synthetic
generators configured in the [synthetic] section.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, load_experiment_config, save_profile
from .datasets import ingest
from .errors import ConfigError, HdcError
from .experiments import (
    resolve_profile,
    run_classify,
    run_cluster,
    run_cost_report,
    run_dim_sweep,
    run_transfer_curve,
    synthesize_dataset,
)


def _add_common(p):
    p.add_argument("--config", metavar="PATH", help="INI config file")
    p.add_argument("--data", metavar="PATH", help="dataset file (else synthetic)")
    p.add_argument("--kind", choices=("feature_csv", "text_corpus"),
                   default="feature_csv", help="format of --data")
    p.add_argument("--out", metavar="DIR", default="results", help="output directory")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--dim", type=int, metavar="N")
    p.add_argument("--mode", choices=("binary", "multibit"))
    p.add_argument("--backend", choices=("ideal", "analog"))
    p.add_argument("--profile", choices=("uniform", "calibrated"))


def build_parser():
    parser = argparse.ArgumentParser(prog="hdcam", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("classify", "cluster", "dim-sweep", "transfer-curve", "calibrate", "cost-report"):
        p = sub.add_parser(verb)
        _add_common(p)
        if verb == "dim-sweep":
            p.add_argument("--dims", default="512,1024,2048",
                           help="comma-separated bank-aligned widths")
    return parser


def _load_config(args):
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    return cfg.with_overrides(
        seed=args.seed, dim=args.dim, mode=args.mode, backend=args.backend, profile=args.profile
    )


def _load_dataset(args, cfg):
    if args.data:
        return ingest(args.data, args.kind)
    return synthesize_dataset(cfg)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out)
        if args.verb == "classify":
            dataset = _load_dataset(args, cfg)
            res = run_classify(cfg, dataset, out / "classify.csv")
            print(f"accuracy = {res.accuracy:.4f} over {res.n_test} held-out samples")
            print(f"in-array energy/query (search) = "
                  f"{res.reports['infer_search'].hydra_energy_pj / res.n_test:.3f} pJ")
            print(f"wrote {out / 'classify.csv'}")
        elif args.verb == "cluster":
            if not args.data and cfg.synthetic.kind == "records":
                # default the synthetic source to planted blobs for clustering
                blobs = replace(cfg.synthetic, kind="hv_blobs", classes=cfg.cluster.k)
                cfg = cfg.with_overrides(synthetic=blobs)
            dataset = _load_dataset(args, cfg)
            res = run_cluster(cfg, dataset, out / "cluster.csv")
            print(f"epochs = {res.state.epoch}, converged = {res.converged}, "
                  f"purity = {res.purity:.4f}")
            print(f"wrote {out / 'cluster.csv'}")
        elif args.verb == "dim-sweep":
            try:
                dims = [int(d) for d in args.dims.split(",")]
            except ValueError:
                raise ConfigError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
            dataset = _load_dataset(args, cfg)
            rows, _ = run_dim_sweep(cfg, dataset, dims, out / "dim_sweep.csv")
            for row in rows:
                print(f"dim {row[0]:5d}: accuracy {row[1]:.4f}, "
                      f"search energy/query {row[2]:.3f} pJ")
            print(f"wrote {out / 'dim_sweep.csv'}")
        elif args.verb == "transfer-curve":
            _, meta = run_transfer_curve(cfg, out / "transfer_curve.csv")
            print(f"max deviation uniform = {meta['max_deviation_uniform_a']:.3e} A, "
                  f"calibrated = {meta['max_deviation_calibrated_a']:.3e} A "
                  f"({meta['deviation_improvement']:.2f}x better)")
            print(f"wrote {out / 'transfer_curve.csv'}")
        elif args.verb == "calibrate":
            profile = resolve_profile(cfg.with_overrides(profile="calibrated"))
            out.mkdir(parents=True, exist_ok=True)
            save_profile(profile, out / "profile.ini")
            print("calibrated levels (far to near): "
                  + ", ".join(f"{v:.2f} V" for v in profile.levels))
            print(f"wrote {out / 'profile.ini'}")
        elif args.verb == "cost-report":
            rows, meta = run_cost_report(cfg, out / "cost_report.csv")
            for row in rows:
                print(f"{row[0]:>14}: {row[2]:8.3f} pJ in-array vs {row[5]:9.3f} pJ CMOS net "
                      f"({row[7]:.2f}x)")
            print(f"wrote {out / 'cost_report.csv'}")
    except (HdcError, OSError) as exc:
        # OSError: an output could not be written, e.g. --out names a file.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
