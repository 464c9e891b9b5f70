"""Benchmark workloads and their seeded input generator.

Every input file is generated here from the workload seed with numpy alone.
The program's own synthetic generators (hdcam.datasets) are deliberately not
used, so a later change to them cannot silently change what is measured.
"""

import string
from dataclasses import dataclass

import numpy as np

DIM = 2048
ALPHABET = string.ascii_lowercase


@dataclass(frozen=True)
class TextSpec:
    """Letter-Markov corpus: one transition matrix per language."""

    lines: int
    languages: int
    length: int
    concentration: float


@dataclass(frozen=True)
class FeatureSpec:
    """Gaussian blobs around uniform prototypes, clipped to [0, 1]."""

    rows: int
    classes: int
    features: int
    noise: float


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    data: object
    ini: dict
    backend: str
    why: str

    @property
    def kind(self):
        return "text_corpus" if isinstance(self.data, TextSpec) else "feature_csv"

    @property
    def n_classes(self):
        return self.data.languages if isinstance(self.data, TextSpec) else self.data.classes

    @property
    def quality_key(self):
        """CSV header field the workload's quality metric is read from."""
        return "accuracy" if self.verb == "classify" else "purity"


# Both text workloads hold out half the corpus, so accuracy rests on 240 queries.
CORPUS = TextSpec(lines=480, languages=8, length=101, concentration=0.4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="text-ngram",
            verb="classify",
            data=CORPUS,
            ini={
                "experiment": {"mode": "binary", "retrain_epochs": 1, "test_fraction": 0.5},
                "encoding": {"scheme": "ngram", "n": 3, "permute_mode": "shift"},
            },
            backend="ideal",
            why=(
                "classify a 480-line, 8-language letter-Markov corpus (101 chars/line), binary, "
                "shift n=3, dim 2048: encode_ngram is ~98% of host time, cam none"
            ),
        ),
        Workload(
            name="text-drop-multibit",
            verb="classify",
            data=CORPUS,
            ini={
                "experiment": {"mode": "multibit", "retrain_epochs": 1, "test_fraction": 0.5},
                "encoding": {"scheme": "ngram", "n": 3, "permute_mode": "drop", "drop_width": 8},
            },
            backend="ideal",
            why=(
                "same corpus, multibit, drop permutation (width 8): the drop RNG path and "
                "ideal_dot scoring; bypass workload for shift-only encoder changes"
            ),
        ),
        Workload(
            name="record-analog",
            verb="classify",
            data=FeatureSpec(rows=1000, classes=32, features=9, noise=0.18),
            ini={
                "experiment": {"mode": "binary", "retrain_epochs": 1, "test_fraction": 0.2},
                "encoding": {"scheme": "record"},
            },
            backend="analog",
            why=(
                "classify 1000 rows (32 Gaussian classes, 9 features), analog, calibrated: "
                "per-query cam search over 32 rows (5 LTA batches), calibration, retrain updates"
            ),
        ),
        Workload(
            name="cluster-analog",
            verb="cluster",
            data=FeatureSpec(rows=120, classes=6, features=9, noise=0.10),
            ini={
                "experiment": {"mode": "binary"},
                "encoding": {"scheme": "record"},
                # threshold 0 never stops early: every seed runs the same 4 epochs, so
                # host time does not depend on how fast a seed converges. Two spare
                # centers keep purity from hinging on whether random initial centers
                # happen to merge two classes.
                "cluster": {"k": 8, "threshold": 0, "max_epochs": 4},
            },
            backend="analog",
            why=(
                "cluster 120 rows (6 classes), k=8, 4 fixed epochs, analog: one batched "
                "match-line solve per epoch; bypass for per-query batching, peak memory guard"
            ),
        ),
    )
}


def text_corpus(spec, rng):
    """(labels, texts) of a letter-Markov corpus; lines cycle through the languages."""
    a = len(ALPHABET)
    alpha = np.full(a, spec.concentration)
    trans = np.cumsum(rng.dirichlet(alpha, size=(spec.languages, a)), axis=2)
    init = np.cumsum(rng.dirichlet(alpha, size=spec.languages), axis=1)
    lang = np.arange(spec.lines) % spec.languages
    u = rng.random((spec.length, spec.lines))
    chars = np.empty((spec.lines, spec.length), dtype=np.int64)
    chars[:, 0] = _draw(init[lang], u[0])
    for t in range(1, spec.length):
        chars[:, t] = _draw(trans[lang, chars[:, t - 1]], u[t])
    letters = np.array(list(ALPHABET))
    texts = ["".join(row) for row in letters[chars]]
    return [f"lang{k}" for k in lang], texts


def _draw(cdf, u):
    # Inverse-CDF draw per row; min() guards against a cdf ending below 1.
    return np.minimum((cdf < u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def feature_rows(spec, rng):
    """(labels, rows) of Gaussian class blobs; rows cycle through the classes."""
    protos = rng.uniform(0.0, 1.0, size=(spec.classes, spec.features))
    cls = np.arange(spec.rows) % spec.classes
    noise = rng.normal(0.0, spec.noise, size=(spec.rows, spec.features))
    x = np.clip(protos[cls] + noise, 0.0, 1.0)
    return [f"c{k}" for k in cls], x


def write_inputs(workload, seed, directory):
    """Write the data file and INI for one workload; return (data_path, ini_path, labels)."""
    rng = np.random.default_rng([seed, 0x68646361])
    if workload.kind == "text_corpus":
        labels, texts = text_corpus(workload.data, rng)
        body = "".join(f"{lab}\t{text}\n" for lab, text in zip(labels, texts))
        data_path = directory / "corpus.txt"
    else:
        labels, x = feature_rows(workload.data, rng)
        body = "".join(
            ",".join(f"{v:.6f}" for v in row) + f",{lab}\n" for row, lab in zip(x, labels)
        )
        data_path = directory / "features.csv"
    data_path.write_text(body)
    ini = {"experiment": {"seed": seed, "dim": DIM}}
    for section, keys in workload.ini.items():
        ini.setdefault(section, {}).update(keys)
    ini_path = directory / "workload.ini"
    ini_path.write_text(
        "".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
            for section, keys in ini.items()
        )
    )
    return data_path, ini_path, labels


def cli_argv(workload, data_path, ini_path, seed, out_dir):
    """Arguments of the one hdcam CLI call a workload makes."""
    return [
        workload.verb,
        "--config", str(ini_path),
        "--data", str(data_path),
        "--kind", workload.kind,
        "--seed", str(seed),
        "--out", str(out_dir),
        "--backend", workload.backend,
        "--profile", "calibrated",
    ]
