"""Item/level memories and record / n-gram MAP encoders.

Record encoding binds one basis vector per feature position to the level
vector of the quantized feature value and bundles the results. N-gram
encoding binds permuted symbol vectors across a sliding window, permuting
older symbols more, and bundles all windows.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import charge_to
from .errors import ConfigError, DimensionError, GenerationError, TooManyLevelsError
from .hvcore import (
    AccumulatorHV,
    BipolarHV,
    bind,
    bundle_add,
    check_alignment,
    hamming_matrix,
    permute_drop,
    permute_shift,
    random_hv,
)


@dataclass
class ItemMemory:
    """Random basis hypervectors keyed by symbol id."""

    dim: int
    symbols: dict

    def __len__(self):
        return len(self.symbols)


@dataclass
class LevelMemory:
    """Ordered level hypervectors over [0, 1]; mutual distance tracks ordinal distance."""

    levels: list

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("level memory needs at least 2 levels")

    @property
    def L(self):
        return len(self.levels)

    @property
    def dim(self):
        return self.levels[0].dim


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


def _pairwise_quasi_orthogonal(hvs, dim):
    if len(hvs) < 2:
        return True
    mat = np.stack([hv.bits for hv in hvs])
    dists = hamming_matrix(mat, mat)
    lo = dim / 2 - 4 * math.sqrt(dim)
    hi = dim / 2 + 4 * math.sqrt(dim)
    off = ~np.eye(len(hvs), dtype=bool)
    return bool(np.all((dists[off] >= lo) & (dists[off] <= hi)))


def build_item_memory(num_symbols, dim, rng):
    """num_symbols independent random basis vectors, retried once if a pair
    lands outside the dim/2 +- 4*sqrt(dim) quasi-orthogonality band."""
    if num_symbols < 1:
        raise ValueError("need at least one symbol")
    for _ in range(2):
        hvs = [random_hv(dim, rng) for _ in range(num_symbols)]
        if _pairwise_quasi_orthogonal(hvs, dim):
            return ItemMemory(dim, {i: hv for i, hv in enumerate(hvs)})
    raise GenerationError("item memory failed the orthogonality check twice")


def build_level_memory(L, dim, rng):
    """Progressive-flip level chain.

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
    blocks = np.array_split(flip_order, L - 1)
    base = random_hv(dim, rng)
    levels = [base]
    bits = base.bits.copy()
    for block in blocks:
        bits[block] ^= 1
        levels.append(BipolarHV(dim, bits.copy()))
    return LevelMemory(levels)


def quantize(x, lm):
    """Uniform bin of x over [0, 1], clamped to [0, L-1]."""
    idx = math.floor(x * lm.L)
    return min(max(idx, 0), lm.L - 1)


def encode_record(features, im, lm, ledger=None):
    """Spatial encoding: bundle bind(basis_f, level of feature f) over features."""
    if len(features) != len(im.symbols):
        raise DimensionError(
            f"expected {len(im.symbols)} features, got {len(features)}"
        )
    acc = AccumulatorHV.zeros(im.dim)
    for pos, x in enumerate(features):
        acc = bundle_add(acc, bind(im.symbols[pos], lm.levels[quantize(x, lm)]))
    charge_to(ledger, "multiplication", len(features))
    charge_to(ledger, "addition", len(features))
    return acc


def _permute_k(hv, k, cfg, rng):
    """k-step permutation of a window symbol.

    Shift mode rotates by k in one pass. Drop mode applies the batch-read
    drop k times (drop_width bits per pass), displacing k * drop_width
    positions with a random tail; each pass is one permutation operation.
    """
    if k == 0:
        return hv
    if cfg.permute_mode == "shift":
        return permute_shift(hv, k)
    if rng is None:
        raise ConfigError("drop-mode permutation needs an rng for the random tail")
    out = hv
    for _ in range(k):
        out = permute_drop(out, cfg.drop_width, rng)
    return out


def encode_ngram(sequence, n, im, cfg, rng=None, ledger=None):
    """Temporal encoding: bundle the bound, position-permuted symbol windows.

    Window (s_t, ..., s_{t+n-1}) contributes bind over k of the k-step
    permutation of the basis vector of s_{t+n-1-k}: the most recent symbol is
    unpermuted, older symbols are permuted more. Each window costs n - 1
    multiplications, one addition and n - 1 permutations in shift mode, or
    n(n-1)/2 in drop mode (one per drop pass).
    """
    if n < 1:
        raise ValueError("n-gram width must be at least 1")
    if len(sequence) < n:
        raise ConfigError(f"sequence of length {len(sequence)} is shorter than n={n}")
    windows = len(sequence) - n + 1
    acc = AccumulatorHV.zeros(im.dim)
    for t in range(windows):
        gram = im.symbols[sequence[t + n - 1]]
        for k in range(1, n):
            gram = bind(gram, _permute_k(im.symbols[sequence[t + n - 1 - k]], k, cfg, rng))
        acc = bundle_add(acc, gram)
    passes = n - 1 if cfg.permute_mode == "shift" else n * (n - 1) // 2
    charge_to(ledger, "permutation", windows * passes)
    charge_to(ledger, "multiplication", windows * (n - 1))
    charge_to(ledger, "addition", windows)
    return acc
