"""Item/level memories and record / n-gram MAP encoders.

Item and level memories are (V, dim) and (L, dim) bit matrices, one row per
symbol or level. Record encoding binds each feature position's item row to
the level row of the quantized value and bundles over positions, for a whole
(n, F) batch of feature rows at once. N-gram encoding binds permuted symbol
rows across a sliding window, permuting older symbols more, and bundles all
windows, for a whole (B, T) block of equal-length sequences at once. Bundles
are int16 counts plus the number of rows bundled.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import charge_to
from .errors import ConfigError, DimensionError, GenerationError, TooManyLevelsError
from .hvcore import (
    COUNT_MAX,
    DROP_WIDTHS,
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
        if self.drop_width not in DROP_WIDTHS:
            raise ConfigError(f"drop width must be one of {DROP_WIDTHS}, got {self.drop_width}")
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
    flip_order = rng.permutation(dim)[: dim // 2]
    levels = np.repeat(random_bits(1, dim, rng), L, axis=0)
    for level, block in enumerate(np.array_split(flip_order, L - 1), 1):
        levels[level:, block] ^= 1
    return levels


def quantize(x, L):
    """Uniform bin of each x over [0, 1] among L levels: floor(x * L), clamped to [0, L-1]."""
    return np.clip(np.floor(np.asarray(x, dtype=np.float64) * L), 0, L - 1).astype(np.intp)


def encode_record(features, im, lm, ledger=None):
    """Spatial encoding of an (n, F) batch: row r bundles, over positions f,
    bind(item row f, level row of features[r, f]).

    Returns the (n, dim) int16 counts and the bundle size F. Charges n * F
    multiplications, then n * F additions.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(im):
        raise DimensionError(f"expected an (n, {len(im)}) feature batch, got shape {features.shape}")
    if np.isnan(features).any():
        raise ValueError("a NaN feature has no quantization level")
    n, n_features = features.shape
    levels = quantize(features, len(lm))
    counts = np.zeros((n, im.shape[1]), dtype=np.int16)
    for pos in range(n_features):
        bound = bind(im[pos], lm)[levels[:, pos]]  # an (L, dim) table, then one gather
        # Counts start at 0, so none can overflow before position COUNT_MAX.
        if pos < COUNT_MAX:
            counts += bound
        else:
            counts = bundle_add(counts, bound)
    charge_to(ledger, "multiplication", n * n_features)
    charge_to(ledger, "addition", n * n_features)
    return counts, n_features


def encode_ngram(symbols, n, im, cfg, rng=None, ledger=None):
    """Temporal encoding of a (B, T) block of equal-length symbol sequences
    (a (T,) row is one): the (B, dim) int16 counts and the window count.

    Window (s_t, ..., s_{t+n-1}) contributes bind over k of the k-step
    permutation of the item row of s_{t+n-1-k}, so older symbols are permuted
    more. Shift mode rotates by k in one pass; drop mode makes k drop passes,
    each with its own random tail. Drop mode draws all tails of the block at
    once, sequence-major: the same stream as one draw per pass. Each window
    costs n - 1 multiplications, one addition and one permutation per pass.
    """
    if n < 1:
        raise ValueError("n-gram width must be at least 1")
    symbols = np.asarray(symbols)
    if symbols.shape[-1] < n:
        raise ConfigError(f"sequence of length {symbols.shape[-1]} is shorter than n={n}")
    block, windows = symbols.shape[:-1], symbols.shape[-1] - n + 1
    drop = cfg.permute_mode == "drop"
    passes = n * (n - 1) // 2 if drop else n - 1
    if drop and rng is None:
        raise ConfigError("drop-mode permutation needs an rng for the random tail")
    if drop:
        shape = (*block, windows, passes, cfg.drop_width)
        tails = rng.integers(0, 2, size=shape, dtype=np.uint8)
    counts = np.zeros((*block, im.shape[1]), dtype=np.int16)
    for t in range(windows):
        gram = im[symbols[..., t + n - 1]]
        for k in range(1, n):
            row = im[symbols[..., t + n - 1 - k]]
            if drop:  # step k makes the window's passes k(k-1)/2 to k(k+1)/2 - 1
                for p in range(k * (k - 1) // 2, k * (k + 1) // 2):
                    row = permute_drop(row, tails[..., t, p, :])
            else:
                row = permute_shift(row, k)
            gram = bind(gram, row)
        counts = bundle_add(counts, gram)
    grams = math.prod(block) * windows
    charge_to(ledger, "permutation", grams * passes)
    charge_to(ledger, "multiplication", grams * (n - 1))
    charge_to(ledger, "addition", grams)
    return counts, windows
