"""Item/level memories and record / n-gram MAP encoders.

Item and level memories are (V, dim) and (L, dim) bit matrices, one row per
symbol or level. Record encoding binds the item row of each feature position
to the level row of the quantized feature value and bundles the results.
N-gram encoding binds permuted symbol rows across a sliding window,
permuting older symbols more, and bundles all windows. Both encoders return
a bundle as (counts, size): the (dim,) int16 count row and the number of
rows bundled.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import charge_to
from .errors import ConfigError, DimensionError, GenerationError, TooManyLevelsError
from .hvcore import (
    bind,
    bundle_add,
    check_alignment,
    hamming_matrix,
    permute_drop,
    permute_shift,
    random_bits,
)


@dataclass
class EncodingConfig:
    """Encoder selection and parameters."""

    scheme: str = "record"
    n: int = 3
    levels: int = 8
    permute_mode: str = "shift"
    drop_width: int = 8
    # Set from ExperimentConfig.dim; not a key of the [encoding] section.
    dim: int = field(default=2048, metadata={"set_by": "experiment.dim"})

    def __post_init__(self):
        if self.scheme not in ("record", "ngram"):
            raise ConfigError(f"unknown encoding scheme: {self.scheme!r}")
        if self.n < 1:
            raise ConfigError("n-gram width must be at least 1")
        if self.scheme == "ngram" and self.n < 2:
            raise ConfigError("ngram scheme requires n >= 2")
        if self.levels < 2:
            raise ConfigError("need at least 2 quantization levels")
        if self.permute_mode not in ("shift", "drop"):
            raise ConfigError(f"unknown permute mode: {self.permute_mode!r}")
        if self.drop_width not in (8, 16):
            raise ConfigError("drop width must be 8 or 16")
        check_alignment(self.dim)


def _pairwise_quasi_orthogonal(rows):
    dim = rows.shape[1]
    dists = hamming_matrix(rows, rows)
    lo = dim / 2 - 4 * math.sqrt(dim)
    hi = dim / 2 + 4 * math.sqrt(dim)
    off = ~np.eye(len(rows), dtype=bool)
    return bool(np.all((dists[off] >= lo) & (dists[off] <= hi)))


def build_item_memory(num_symbols, dim, rng):
    """(num_symbols, dim) independent random basis rows, redrawn once if a pair
    lands outside the dim/2 +- 4*sqrt(dim) quasi-orthogonality band."""
    if num_symbols < 1:
        raise ValueError("need at least one symbol")
    for _ in range(2):
        rows = random_bits(num_symbols, dim, rng)
        if _pairwise_quasi_orthogonal(rows):
            return rows
    raise GenerationError("item memory failed the orthogonality check twice")


def build_level_memory(L, dim, rng):
    """(L, dim) progressive-flip level chain.

    Level 0 is random; each next level flips its own disjoint block of a
    pre-selected random set of dim/2 positions, so the ends are exactly dim/2
    apart and distance grows with level separation.
    """
    if L < 2:
        raise ValueError("need at least 2 levels")
    check_alignment(dim)
    if dim // (2 * (L - 1)) < 1:
        raise TooManyLevelsError(f"{L} levels need at least {2 * (L - 1)} dims, got {dim}")
    flip_order = rng.generator.permutation(dim)[: dim // 2]
    levels = np.repeat(random_bits(1, dim, rng), L, axis=0)
    for level, block in enumerate(np.array_split(flip_order, L - 1), 1):
        levels[level:, block] ^= 1
    return levels


def quantize(x, L):
    """Uniform bin of x over [0, 1] among L levels, clamped to [0, L-1]."""
    return min(max(math.floor(x * L), 0), L - 1)


def encode_record(features, im, lm, ledger=None):
    """Spatial encoding: bundle bind(item row f, level row of feature f) over features."""
    if len(features) != len(im):
        raise DimensionError(f"expected {len(im)} features, got {len(features)}")
    counts = np.zeros(im.shape[1], dtype=np.int16)
    for pos, x in enumerate(features):
        counts = bundle_add(counts, bind(im[pos], lm[quantize(x, len(lm))]))
    charge_to(ledger, "multiplication", len(features))
    charge_to(ledger, "addition", len(features))
    return counts, len(features)


def _permute_k(row, k, cfg, rng):
    """k-step permutation of a window symbol's row.

    Shift mode rotates by k in one pass. Drop mode applies the batch-read
    drop k times (drop_width bits per pass), displacing k * drop_width
    positions with a random tail; each pass is one permutation operation.
    """
    if k == 0:
        return row
    if cfg.permute_mode == "shift":
        return permute_shift(row, k)
    if rng is None:
        raise ConfigError("drop-mode permutation needs an rng for the random tail")
    for _ in range(k):
        row = permute_drop(row, cfg.drop_width, rng)
    return row


def encode_ngram(sequence, n, im, cfg, rng=None, ledger=None):
    """Temporal encoding: bundle the bound, position-permuted symbol windows.

    Window (s_t, ..., s_{t+n-1}) contributes bind over k of the k-step
    permutation of the item row of s_{t+n-1-k}: the most recent symbol is
    unpermuted, older symbols are permuted more. Each window costs n - 1
    multiplications, one addition and n - 1 permutations in shift mode, or
    n(n-1)/2 in drop mode (one per drop pass).
    """
    if n < 1:
        raise ValueError("n-gram width must be at least 1")
    if len(sequence) < n:
        raise ConfigError(f"sequence of length {len(sequence)} is shorter than n={n}")
    windows = len(sequence) - n + 1
    counts = np.zeros(im.shape[1], dtype=np.int16)
    for t in range(windows):
        gram = im[sequence[t + n - 1]]
        for k in range(1, n):
            gram = bind(gram, _permute_k(im[sequence[t + n - 1 - k]], k, cfg, rng))
        counts = bundle_add(counts, gram)
    passes = n - 1 if cfg.permute_mode == "shift" else n * (n - 1) // 2
    charge_to(ledger, "permutation", windows * passes)
    charge_to(ledger, "multiplication", windows * (n - 1))
    charge_to(ledger, "addition", windows)
    return counts, windows
