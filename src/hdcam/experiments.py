"""Experiment runners: classification, clustering, dimension sweeps, curves.

Every runner derives named child seeds from the master seed, charges phase
ledgers (training, query encoding, query search) against the cost table, and
can emit a CSV whose header comment block records the fully resolved
configuration and all derived seeds, so identical configs give identical
output bytes.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cam
from .cost import CostLedger, ratios_vs_cmos
from .datasets import make_hv_blobs, make_language_corpus, make_record_blobs, purity, train_test_indices
from .encoder import build_item_memory, build_level_memory, encode_ngram_packed, encode_record
from .errors import ConfigError
from .hvcore import Rng, derive_seed, majority
from .learner import Encoded, SimilarityBackend, cluster, predict, retrain, train

SEED_STREAMS = ("split", "memories", "encode", "lta", "cluster", "dataset")

# Cells (rows x dim) of one encoder block: 64 rows at dim 2048, 512 at 256.
# Wide enough that numpy's per-call overhead is spread over many rows, small
# enough that a block's working rows stay in cache.
ENCODE_BLOCK_CELLS = 2**17


def child_seeds(master):
    return {name: derive_seed(master, name) for name in SEED_STREAMS}


def resolve_profile(cfg):
    """Uniform 1 V profile, or the one calibrated for the analog params."""
    if cfg.profile == "uniform":
        return cam.VoltageProfile.uniform(1.0)
    return cam.calibrate_profile(cfg.analog)


def synthesize_dataset(cfg):
    """Built-in generator selected by the [synthetic] config section."""
    rng = Rng(child_seeds(cfg.seed)["dataset"])
    spec = cfg.synthetic
    if spec.kind == "records":
        return make_record_blobs(spec, rng)
    if spec.kind == "languages":
        return make_language_corpus(spec, rng)
    return make_hv_blobs(
        spec.classes, spec.blob_points, cfg.dim, rng, spec.blob_max_flip_fraction
    )


@dataclass
class EncodingContext:
    """Item (and level) memory rows plus whatever the dataset kind needs at
    encode time: the symbol vocabulary of a corpus (each character mapped to
    its rank in code point order), or a feature matrix normalised per feature
    to [0, 1] over its range."""

    item_memory: np.ndarray
    level_memory: np.ndarray = None
    vocab: dict = None
    features: np.ndarray = None


# Dataset kind each encoding scheme reads.
SCHEME_KINDS = {"ngram": "text_corpus", "record": "feature_csv"}


def build_encoding_context(dataset, cfg, seed):
    enc = cfg.encoding
    if dataset.kind == "synthetic_blobs":
        raise ConfigError("[synthetic] kind = hv_blobs plants hypervectors, which no encoding scheme "
                          "reads: only hdcam cluster takes them")
    if dataset.kind != SCHEME_KINDS[enc.scheme]:
        raise ConfigError(f"encoding scheme {enc.scheme!r} cannot encode a {dataset.kind} dataset")
    rng = Rng(seed)
    if enc.scheme == "ngram":
        chars = sorted({c for text in dataset.samples for c in text})
        im = build_item_memory(len(chars), cfg.dim, rng)
        return EncodingContext(item_memory=im, vocab={c: i for i, c in enumerate(chars)})
    samples = dataset.samples
    im = build_item_memory(samples.shape[1], cfg.dim, rng)
    lm = build_level_memory(enc.levels, cfg.dim, rng)
    fmin, fmax = samples.min(axis=0), samples.max(axis=0)
    features = (samples - fmin) / np.where(fmax > fmin, fmax - fmin, 1.0)
    return EncodingContext(item_memory=im, level_memory=lm, features=features)


def _blocks(rows, size):
    """Slices of the runs of equal-length rows, in order, cut every `size` rows."""
    start = 0
    for stop in range(1, len(rows) + 1):
        if stop == len(rows) or stop - start == size or len(rows[stop]) != len(rows[start]):
            yield slice(start, stop)
            start = stop


def symbol_indices(texts, points):
    """(len(texts), length) indices into the sorted code points of a
    vocabulary that holds every character of the equal-length texts: one
    searchsorted of the joined texts' UTF-32 code points, not one dict lookup
    per character."""
    codes = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    return np.searchsorted(points, codes).reshape(len(texts), len(texts[0]))


def encode_subset(dataset, indices, ctx, cfg, rng_encode, ledger=None):
    """Encoded batch of the given rows, then one majority. Rows are encoded in
    index order, which keeps the drop-mode tail stream, in blocks of at most
    max(1, ENCODE_BLOCK_CELLS // dim) rows; an n-gram block is a run of
    equal-length sequences, because an ingested corpus may be ragged."""
    enc = cfg.encoding
    counts = np.empty((len(indices), cfg.dim), dtype=np.int16)
    sizes = np.empty(len(indices), dtype=np.int64)
    if enc.scheme == "ngram":
        rows = [dataset.samples[i] for i in indices]
        points = np.fromiter(map(ord, ctx.vocab), dtype=np.uint32, count=len(ctx.vocab))
    else:
        rows = ctx.features[np.asarray(indices, dtype=np.intp)]
    for block in _blocks(rows, max(1, ENCODE_BLOCK_CELLS // cfg.dim)):
        if enc.scheme == "ngram":
            symbols = symbol_indices(rows[block], points)
            counts[block], sizes[block] = encode_ngram_packed(symbols, enc.n, ctx.item_memory, enc,
                                                              rng_encode, ledger)
        else:
            encoded = encode_record(rows[block], ctx.item_memory, ctx.level_memory, ledger)
            counts[block], sizes[block] = encoded
    labels = [None] * len(indices) if dataset.labels is None else [dataset.labels[i] for i in indices]
    return Encoded(majority(counts, sizes), counts, sizes, labels)


def _ideal_backend(mode):
    return SimilarityBackend(kind="ideal_dot" if mode == "multibit" else "ideal_hamming")


def inference_backend(cfg):
    """Backend selected by the config; analog variants get profile, sensing, rng."""
    if cfg.backend == "ideal":
        return _ideal_backend(cfg.mode), None
    profile = resolve_profile(cfg)
    backend = SimilarityBackend(
        kind="analog_cam",
        profile=profile,
        params=cfg.analog,
        sensing=cfg.sensing,
        rng=Rng(child_seeds(cfg.seed)["lta"]),
    )
    return backend, profile


def write_csv(path, meta, fieldnames, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        for k, v in meta.items():
            f.write(f"# {k} = {v}\n")
        w = csv.writer(f)
        w.writerow(fieldnames)
        w.writerows(rows)


def _report_meta(meta, profile, reports):
    """Append the profile levels (analog runs) and each ledger's in-array cost to meta."""
    if profile is not None:
        meta["profile.levels"] = ",".join(f"{v:.2f}" for v in profile.levels)
    for name, ledger in reports.items():
        meta[f"cost.{name}.hydra_energy_pj"] = ledger.hydra_energy_pj
        meta[f"cost.{name}.hydra_latency_ns"] = ledger.hydra_latency_ns


@dataclass
class ClassifyResult:
    accuracy: float
    n_train: int
    n_test: int
    reports: dict
    meta: dict


def run_classify(cfg, dataset, out_path=None):
    """Train (optionally retrain), then evaluate on a held-out seeded split."""
    if dataset.labels is None:
        raise ConfigError("classification needs a labeled dataset")
    seeds = child_seeds(cfg.seed)
    table = cfg.cost_table()
    ledgers = {
        name: CostLedger(cfg.dim, table) for name in ("train", "infer_encode", "infer_search")
    }
    # Built first, so a config the analog backend rejects fails before any encoding.
    backend, profile = inference_backend(cfg)
    train_idx, test_idx = train_test_indices(dataset.n, cfg.test_fraction, seeds["split"])
    ctx = build_encoding_context(dataset, cfg, seeds["memories"])
    rng_encode = Rng(seeds["encode"])
    train_batch = encode_subset(dataset, train_idx, ctx, cfg, rng_encode, ledgers["train"])
    test_batch = encode_subset(dataset, test_idx, ctx, cfg, rng_encode, ledgers["infer_encode"])

    cm = train(train_batch, ledger=ledgers["train"])
    if cfg.retrain_epochs:
        # Retraining always runs against the ideal backend of the configured
        # mode; the configured (possibly analog) backend applies to inference.
        cm = retrain(cm, train_batch, cfg.retrain_epochs, _ideal_backend(cfg.mode),
                     ledger=ledgers["train"])

    labels, flags = predict(test_batch, cm, backend, ledger=ledgers["infer_search"])
    predictions = [
        (int(idx), true, predicted, int(flag))
        for idx, true, predicted, flag in zip(test_idx, test_batch.labels, labels, flags)
    ]
    accuracy = sum(true == predicted for _, true, predicted, _ in predictions) / len(test_batch)

    reports = dict(ledgers)
    reports["total"] = ledgers["train"].merge(ledgers["infer_encode"]).merge(ledgers["infer_search"])
    meta = cfg.meta("classify")
    meta.update({f"seeds.{k}": v for k, v in seeds.items()})
    meta["accuracy"] = accuracy
    meta["n_train"] = len(train_batch)
    meta["n_test"] = len(test_batch)
    _report_meta(meta, profile, reports)
    if out_path is not None:
        rows = [(i, t, p, int(t == p), f) for i, t, p, f in predictions]
        write_csv(
            out_path,
            meta,
            ("sample_index", "true_label", "predicted_label", "correct", "lta_ambiguous_flags"),
            rows,
        )
    return ClassifyResult(accuracy, len(train_batch), len(test_batch), reports, meta)


@dataclass
class ClusterResult:
    state: object
    purity: float
    converged: bool
    reports: dict
    meta: dict


def run_cluster(cfg, dataset, out_path=None):
    """Cluster encoded points; labels, when present, only score purity."""
    seeds = child_seeds(cfg.seed)
    table = cfg.cost_table()
    ledgers = {name: CostLedger(cfg.dim, table) for name in ("encode", "cluster")}
    backend, profile = inference_backend(cfg)
    if dataset.kind == "synthetic_blobs":
        points = dataset.samples
    else:
        ctx = build_encoding_context(dataset, cfg, seeds["memories"])
        points = encode_subset(
            dataset, range(dataset.n), ctx, cfg, Rng(seeds["encode"]), ledgers["encode"]
        ).bits
    state = cluster(points, cfg.cluster, Rng(seeds["cluster"]), backend, ledger=ledgers["cluster"])
    converged = state.epoch < cfg.cluster.max_epochs
    score = purity(state.assignments, dataset.labels) if dataset.labels is not None else float("nan")
    reports = dict(ledgers)
    reports["total"] = ledgers["encode"].merge(ledgers["cluster"])
    meta = cfg.meta("cluster")
    meta.update({f"seeds.{k}": v for k, v in seeds.items()})
    meta["epochs"] = state.epoch
    meta["converged"] = converged
    meta["purity"] = score
    meta["objective_history"] = ";".join(str(v) for v in state.objective_history)
    _report_meta(meta, profile, reports)
    result = ClusterResult(state=state, purity=score, converged=converged, reports=reports, meta=meta)
    if out_path is not None:
        labels = dataset.labels if dataset.labels is not None else [""] * dataset.n
        rows = [(i, labels[i], int(state.assignments[i])) for i in range(len(points))]
        write_csv(out_path, meta, ("point_index", "label", "cluster"), rows)
    return result


def run_dim_sweep(cfg, dataset, dims, out_path=None):
    """Classification accuracy and per-query cost across vector widths."""
    rows = []
    results = {}
    for dim in dims:
        sub = cfg.with_overrides(dim=dim)
        res = run_classify(sub, dataset)
        results[dim] = res
        search_rep = res.reports["infer_search"]
        encode_rep = res.reports["infer_encode"]
        rows.append(
            (
                dim,
                res.accuracy,
                search_rep.hydra_energy_pj / res.n_test,
                (search_rep.hydra_energy_pj + encode_rep.hydra_energy_pj) / res.n_test,
                search_rep.hydra_latency_ns / res.n_test,
                search_rep.cmos_net_energy_pj / res.n_test,
            )
        )
    meta = cfg.meta("dim-sweep")
    meta["dims"] = ",".join(str(d) for d in dims)
    if out_path is not None:
        write_csv(
            out_path,
            meta,
            (
                "dim",
                "accuracy",
                "energy_per_query_search_pj",
                "energy_per_query_total_pj",
                "latency_per_query_search_ns",
                "cmos_net_energy_per_query_pj",
            ),
            rows,
        )
    return rows, results


def run_transfer_curve(cfg, out_path=None):
    """Current-vs-distance curves for the uniform and calibrated profiles."""
    params = cfg.analog
    uniform = cam.VoltageProfile.uniform(1.0)
    calibrated = resolve_profile(cfg.with_overrides(profile="calibrated"))
    curves = {"uniform": cam.transfer_curve(uniform, params),
              "calibrated": cam.transfer_curve(calibrated, params)}
    dev_u = cam.max_line_deviation(curves["uniform"])
    dev_c = cam.max_line_deviation(curves["calibrated"])
    meta = cfg.meta("transfer-curve")
    meta["placement_rule"] = "random-seeded"
    meta["profile.calibrated.levels"] = ",".join(f"{v:.2f}" for v in calibrated.levels)
    meta["max_deviation_uniform_a"] = dev_u
    meta["max_deviation_calibrated_a"] = dev_c
    meta["deviation_improvement"] = dev_u / dev_c if dev_c > 0 else float("inf")
    rows = [(h, c, pid) for pid in ("uniform", "calibrated") for h, c in enumerate(curves[pid].tolist())]
    if out_path is not None:
        write_csv(out_path, meta, ("hamming", "current_amperes", "profile_id"), rows)
    return curves, meta


def run_cost_report(cfg, out_path=None):
    """Constants and CMOS-vs-in-array ratios of the active cost table."""
    table = cfg.cost_table()
    ratios = ratios_vs_cmos(table)
    rows = []
    for op, c in table.ops.items():
        rows.append(
            (
                op,
                c.hydra_latency_ns,
                c.hydra_energy_pj,
                c.cmos_cycles,
                c.cmos_energy_pj,
                c.cmos_net_energy_pj,
                round(ratios[op]["energy_ratio"], 4),
                round(ratios[op]["net_energy_ratio"], 4),
            )
        )
    meta = {
        "mem_read_energy_nj": table.mem_read_energy_nj,
        "cmos_cycle_ns": table.cmos_cycle_ns,
        "reference_dim": table.reference_dim,
        **cfg.meta("cost-report"),
    }
    if out_path is not None:
        write_csv(
            out_path,
            meta,
            (
                "op",
                "hydra_latency_ns",
                "hydra_energy_pj",
                "cmos_cycles",
                "cmos_energy_pj",
                "cmos_net_energy_pj",
                "energy_ratio",
                "net_energy_ratio",
            ),
            rows,
        )
    return rows, meta
