"""Dataset ingestion and seeded synthetic generators.

File formats: feature_csv is comma-separated, one sample per line, label in
the last column; text_corpus is one "label<TAB>text" line per sample. The
synthetic generators provide desk-scale stand-ins: Gaussian feature blobs, a
letter-Markov language corpus, and planted hypervector blobs for clustering.
"""

import math
import string
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, EmptyDatasetError, ParseError, check_choices
from .hvcore import Rng, pack_rows, random_bits


@dataclass
class Dataset:
    """Samples plus optional labels, one per sample.

    The samples of a feature_csv dataset are one (n, F) float64 matrix, those
    of a text_corpus a list of strings, and those of synthetic_blobs
    (n, dim/64) uint64 packed rows (see hvcore).
    """

    kind: str
    samples: object
    labels: list = None

    @property
    def n(self):
        return len(self.samples)


@dataclass
class SyntheticSpec:
    """Parameters of the built-in generators."""

    kind: Literal["records", "languages", "hv_blobs"] = "records"
    samples: int = 600
    classes: int = 4
    features: int = 9
    noise: float = 0.05
    languages: int = 4
    text_length: int = 101
    blob_points: int = 40
    blob_max_flip_fraction: float = 1 / 16

    def __post_init__(self):
        check_choices(self)
        counts = (self.samples, self.classes, self.features, self.languages,
                  self.text_length, self.blob_points)
        if min(counts) < 1:
            raise ConfigError("synthetic counts and lengths must be positive")
        if not (self.noise >= 0 and 0 <= self.blob_max_flip_fraction <= 1):
            raise ConfigError("noise must be non-negative and blob_max_flip_fraction in [0, 1]")


def _numbered_lines(path):
    try:
        with open(path) as f:
            yield from enumerate(f, 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


INGEST_KINDS = ("feature_csv", "text_corpus")


def ingest(path, kind):
    """Parse a dataset file line by line; errors carry the offending line
    number. Feature rows are stacked once, at the end, into an (n, F) matrix."""
    if kind == "feature_csv":
        samples, labels = [], []
        arity = None
        for lineno, raw in _numbered_lines(path):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError(f"line {lineno}: need features and a label", line=lineno)
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                raise ParseError(
                    f"line {lineno}: expected {arity} fields, got {len(parts)}",
                    line=lineno,
                )
            try:
                row = [float(v) for v in parts[:-1]]
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric feature", line=lineno)
            if not all(map(math.isfinite, row)):
                raise ParseError(f"line {lineno}: non-finite feature", line=lineno)
            if not parts[-1].strip():
                raise ParseError(f"line {lineno}: empty label", line=lineno)
            samples.append(row)
            labels.append(parts[-1].strip())
        if not samples:
            raise EmptyDatasetError(f"no samples in {path}")
        samples = np.array(samples, dtype=np.float64)
        with np.errstate(over="ignore"):
            spans = samples.max(axis=0) - samples.min(axis=0)
        if not np.isfinite(spans).all():
            raise ParseError("feature range exceeds the float range")
        return Dataset("feature_csv", samples, labels)
    if kind == "text_corpus":
        samples, labels = [], []
        for lineno, raw in _numbered_lines(path):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError(f"line {lineno}: expected label<TAB>text", line=lineno)
            label, text = line.split("\t", 1)
            if not label.strip() or not text:
                raise ParseError(f"line {lineno}: empty label or text", line=lineno)
            samples.append(text)
            labels.append(label.strip())
        if not samples:
            raise EmptyDatasetError(f"no samples in {path}")
        return Dataset("text_corpus", samples, labels)
    raise ConfigError(f"kind must be one of {INGEST_KINDS}, got {kind!r}")


def make_record_blobs(spec, rng):
    """Gaussian class blobs in feature space, clipped to [0, 1]: row i belongs
    to class i mod classes. The one (samples, features) normal draw is the
    same stream as one draw per row."""
    protos = rng.uniform(0.0, 1.0, size=(spec.classes, spec.features))
    classes = np.arange(spec.samples) % spec.classes
    noise = rng.normal(0.0, spec.noise, size=(spec.samples, spec.features))
    samples = np.clip(protos[classes] + noise, 0.0, 1.0)
    return Dataset("feature_csv", samples, [f"class_{c}" for c in classes])


def make_language_corpus(spec, rng):
    """Seeded letter-Markov corpus: one transition matrix per language, line i
    in language i mod languages. Each letter is the first whose cumulative
    probability exceeds one uniform, as rng.choice(p=...) picks it, and the
    one (samples, text_length) uniform draw is the same stream as one per letter."""
    a = len(string.ascii_lowercase)
    transitions = [rng.dirichlet(np.full(a, 0.3), size=a) for _ in range(spec.languages)]
    initials = [rng.dirichlet(np.full(a, 0.3)) for _ in range(spec.languages)]
    uniforms = rng.random((spec.samples, spec.text_length))
    # cdfs[lang, 0] starts a line; cdfs[lang, 1 + c] follows letter c
    cdfs = np.concatenate((np.array(initials)[:, None], transitions), axis=1).cumsum(axis=2)
    cdfs /= cdfs[..., -1:]
    langs = np.arange(spec.samples) % spec.languages
    chars = np.full((spec.samples, spec.text_length + 1), -1)  # column 0: before the line
    for t in range(spec.text_length):
        chars[:, t + 1] = (cdfs[langs, chars[:, t] + 1] <= uniforms[:, t, None]).sum(axis=1)
    samples = ["".join(row) for row in np.array(list(string.ascii_lowercase))[chars[:, 1:]]]
    return Dataset("text_corpus", samples, [f"lang_{lang}" for lang in langs])


def make_hv_blobs(K, points_per_blob, dim, rng, max_flip_fraction=1 / 16):
    """Planted hypervector blobs: each point flips at most dim * fraction bits
    of its blob center. Returns a synthetic_blobs dataset whose samples are
    (K * points_per_blob, dim/64) packed rows, with planted labels. The
    (K, dim) centers are the first draw from rng, random_bits(K, dim, rng)."""
    max_flips = int(dim * max_flip_fraction)
    centers = random_bits(K, dim, rng)
    points = np.repeat(centers, points_per_blob, axis=0)
    for bits in points:
        n_flips = int(rng.integers(0, max_flips + 1))
        if n_flips:
            bits[rng.choice(dim, size=n_flips, replace=False)] ^= 1
    labels = [k for k in range(K) for _ in range(points_per_blob)]
    return Dataset("synthetic_blobs", pack_rows(points), labels)


def purity(assignments, labels):
    """Fraction of points whose cluster's majority label matches their own."""
    # Codes in order of first appearance: np.unique would import numpy.ma.
    labels = np.asarray(labels).tolist()
    index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
    codes = np.array([index[label] for label in labels])
    assignments = np.asarray(assignments)
    n_labels = len(index)
    table = np.bincount(assignments * n_labels + codes, minlength=(assignments.max() + 1) * n_labels)
    return table.reshape(-1, n_labels).max(axis=1).sum() / len(labels)


def train_test_indices(n, test_fraction, seed):
    """Deterministic shuffled split; a pure function of (n, test_fraction, seed)."""
    if not 0 < test_fraction < 1:
        raise ConfigError("test_fraction must be in (0, 1)")
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ConfigError(f"test_fraction {test_fraction} of {n} samples leaves no training sample")
    perm = Rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])
