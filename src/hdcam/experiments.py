"""Experiment runners: classification, clustering, dimension sweeps, curves.

Every runner derives named child seeds from the master seed, charges phase
ledgers (training, query encoding, query search) against the cost table, and
returns its CSV as one Run: a header block that records the fully resolved
configuration and all derived seeds, the column names and the rows. The CLI
writes it with write_csv, so identical configs give identical output bytes.
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
from .hvcore import Rng, derive_seed, majority, plane_counts, plane_majority
from .learner import Encoded, SimilarityBackend, check_cluster_backend, cluster, predict, retrain, train

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
    encode time: the code_point_table of a corpus's characters (item row i is
    the i-th character in code point order), or a feature matrix normalised
    per feature to [0, 1] over its range."""

    item_memory: np.ndarray
    level_memory: np.ndarray = None
    symbol_table: np.ndarray = None
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
        chars = "".join(sorted(set("".join(dataset.samples))))
        points = np.frombuffer(chars.encode("utf-32-le"), dtype=np.uint32)
        im = build_item_memory(len(points), cfg.dim, rng)
        return EncodingContext(item_memory=im, symbol_table=code_point_table(points))
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


def code_point_table(points):
    """Lookup table from code point to the index of that point in the sorted
    code points of a vocabulary: entry points[i] holds i, and the table ends
    at the largest point. Its dtype is the smallest unsigned one that holds
    every index, so an ASCII vocabulary takes one byte per entry."""
    table = np.zeros(int(points[-1]) + 1, dtype=np.min_scalar_type(len(points) - 1))
    table[points] = np.arange(len(points))
    return table


def symbol_indices(texts, table):
    """(len(texts), length) intp indices of the characters of equal-length
    texts, through the code_point_table of a vocabulary that holds every one
    of them: one gather of the joined texts' UTF-32 code points, not one dict
    lookup per character."""
    codes = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    return table[codes].astype(np.intp).reshape(len(texts), len(texts[0]))


def encode_subset(dataset, indices, ctx, cfg, rng_encode, ledger=None):
    """Encoded batch of the given rows. Rows are encoded in index order, which
    keeps the drop-mode tail stream, in blocks of at most
    max(1, ENCODE_BLOCK_CELLS // dim) rows; an n-gram block is a run of
    equal-length sequences, because an ingested corpus may be ragged. Each
    block is binarized as soon as it is encoded. Its counts are kept only in
    multibit mode, whose ideal_dot backend scores them; a binary batch's
    counts are None. An n-gram block's count planes give its majority bits
    directly, and are turned into int16 counts only in multibit mode."""
    enc = cfg.encoding
    bits = np.empty((len(indices), cfg.dim), dtype=np.uint8)
    counts = np.empty(bits.shape, dtype=np.int16) if cfg.mode == "multibit" else None
    sizes = np.empty(len(indices), dtype=np.int64)
    if enc.scheme == "ngram":
        rows = [dataset.samples[i] for i in indices]
    else:
        rows = ctx.features[np.asarray(indices, dtype=np.intp)]
    for block in _blocks(rows, max(1, ENCODE_BLOCK_CELLS // cfg.dim)):
        if enc.scheme == "ngram":
            symbols = symbol_indices(rows[block], ctx.symbol_table)
            planes, size = encode_ngram_packed(symbols, enc.n, ctx.item_memory, enc, rng_encode, ledger)
            sizes[block] = size
            bits[block] = plane_majority(planes, size)
            if counts is not None:
                plane_counts(planes, out=counts[block])
            del planes  # not held while the next block encodes
        else:
            block_counts, sizes[block] = encode_record(rows[block], ctx.item_memory, ctx.level_memory,
                                                       ledger)
            bits[block] = majority(block_counts, sizes[block])
            if counts is not None:
                counts[block] = block_counts
            del block_counts
    labels = [None] * len(indices) if dataset.labels is None else [dataset.labels[i] for i in indices]
    return Encoded(bits, counts, sizes, labels)


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


@dataclass
class Run:
    """A runner's CSV: the header block, the column names and the rows; for
    classify and cluster also the phase ledgers by name."""

    meta: dict
    columns: tuple
    rows: list
    reports: dict = None


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


def run_classify(cfg, dataset):
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
    cm = train(train_batch, ledger=ledgers["train"])
    if cfg.retrain_epochs:
        # Retraining always runs against the ideal backend of the configured
        # mode; the configured (possibly analog) backend applies to inference.
        cm = retrain(cm, train_batch, cfg.retrain_epochs, _ideal_backend(cfg.mode),
                     ledger=ledgers["train"])
    # Released before the queries are encoded, so the two batches are never
    # held at once. Retraining draws nothing from rng_encode, so the queries'
    # drop-mode tails do not depend on this order.
    del train_batch
    test_batch = encode_subset(dataset, test_idx, ctx, cfg, rng_encode, ledgers["infer_encode"])

    labels, flags = predict(test_batch, cm, backend, ledger=ledgers["infer_search"])
    rows = [
        (int(idx), true, predicted, int(true == predicted), int(flag))
        for idx, true, predicted, flag in zip(test_idx, test_batch.labels, labels, flags)
    ]

    reports = dict(ledgers)
    reports["total"] = ledgers["train"].merge(ledgers["infer_encode"]).merge(ledgers["infer_search"])
    meta = cfg.meta("classify")
    meta.update({f"seeds.{k}": v for k, v in seeds.items()})
    meta["accuracy"] = sum(correct for _, _, _, correct, _ in rows) / len(test_batch)
    meta["n_train"] = len(train_idx)
    meta["n_test"] = len(test_batch)
    _report_meta(meta, profile, reports)
    columns = ("sample_index", "true_label", "predicted_label", "correct", "lta_ambiguous_flags")
    return Run(meta, columns, rows, reports)


def run_cluster(cfg, dataset):
    """Cluster encoded points; labels, when present, only score purity."""
    seeds = child_seeds(cfg.seed)
    table = cfg.cost_table()
    ledgers = {name: CostLedger(cfg.dim, table) for name in ("encode", "cluster")}
    # Checked first, so a backend that cannot cluster fails before any encoding.
    backend, profile = inference_backend(cfg)
    check_cluster_backend(backend)
    if dataset.kind == "synthetic_blobs":
        points = dataset.samples
    else:
        ctx = build_encoding_context(dataset, cfg, seeds["memories"])
        points = encode_subset(
            dataset, range(dataset.n), ctx, cfg, Rng(seeds["encode"]), ledgers["encode"]
        ).bits
    state = cluster(points, cfg.cluster, Rng(seeds["cluster"]), backend, ledger=ledgers["cluster"])
    reports = dict(ledgers)
    reports["total"] = ledgers["encode"].merge(ledgers["cluster"])
    meta = cfg.meta("cluster")
    meta.update({f"seeds.{k}": v for k, v in seeds.items()})
    meta["epochs"] = state.epoch
    meta["converged"] = state.epoch < cfg.cluster.max_epochs
    meta["purity"] = float("nan") if dataset.labels is None else purity(state.assignments, dataset.labels)
    meta["objective_history"] = ";".join(str(v) for v in state.objective_history)
    _report_meta(meta, profile, reports)
    labels = dataset.labels if dataset.labels is not None else [""] * dataset.n
    rows = [(i, labels[i], int(state.assignments[i])) for i in range(len(points))]
    return Run(meta, ("point_index", "label", "cluster"), rows, reports)


def run_dim_sweep(cfg, dataset, dims):
    """Classification accuracy and per-query cost across vector widths."""
    rows = []
    for dim in dims:
        sub = cfg.with_overrides(dim=dim)
        run = run_classify(sub, dataset)
        n_test = run.meta["n_test"]
        search_rep = run.reports["infer_search"]
        encode_rep = run.reports["infer_encode"]
        rows.append(
            (
                dim,
                run.meta["accuracy"],
                search_rep.hydra_energy_pj / n_test,
                (search_rep.hydra_energy_pj + encode_rep.hydra_energy_pj) / n_test,
                search_rep.hydra_latency_ns / n_test,
                search_rep.cmos_net_energy_pj / n_test,
            )
        )
    meta = cfg.meta("dim-sweep")
    meta["dims"] = ",".join(str(d) for d in dims)
    columns = (
        "dim",
        "accuracy",
        "energy_per_query_search_pj",
        "energy_per_query_total_pj",
        "latency_per_query_search_ns",
        "cmos_net_energy_per_query_pj",
    )
    return Run(meta, columns, rows)


def run_transfer_curve(cfg):
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
    return Run(meta, ("hamming", "current_amperes", "profile_id"), rows)


def run_cost_report(cfg):
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
    columns = (
        "op",
        "hydra_latency_ns",
        "hydra_energy_pj",
        "cmos_cycles",
        "cmos_energy_pj",
        "cmos_net_energy_pj",
        "energy_ratio",
        "net_energy_ratio",
    )
    return Run(meta, columns, rows)
