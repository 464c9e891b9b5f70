"""Item/level memories and record / n-gram MAP encoders.

Item and level memories are (V, dim) and (L, dim) bit matrices, one row per
symbol or level. Record encoding binds each feature position's item row to
the level row of the quantized value and bundles over positions, for a whole
(n, F) batch of feature rows at once. N-gram encoding binds permuted symbol
rows across a sliding window, permuting older symbols more, and bundles all
windows, for a whole (B, T) block of equal-length sequences at once.

The run path's encoders, encode_record and encode_ngram_packed, both bundle
with _count_grams into count planes (see hvcore), from a packed table that
record_table or ngram_table builds once per run. encode_ngram is the
per-window n-gram definition, kept as the reference for tests and bench.
"""

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost import charge_to
from .errors import (ConfigError, DimensionError, GenerationError, SaturationError, TooManyLevelsError,
                     check_choices)
from .hvcore import (
    COUNT_MAX,
    DROP_WIDTHS,
    PlaneCounter,
    bind,
    bundle_add,
    check_alignment,
    hamming_matrix,
    pack_rows,
    packed_random_bits,
    permute_drop,
    permute_shift,
    plane_sum,
    random_bits,
)

# Gram bits (windows x rows x dim) that _count_grams gathers at a time:
# 2 windows of a 64-row block at dim 2048, n * 32 KB of packed table rows.
GRAM_CHUNK_CELLS = 2**18


@dataclass
class EncodingConfig:
    """Encoder selection and parameters."""

    scheme: Literal["record", "ngram"] = "record"
    n: int = 3
    levels: int = 8
    permute_mode: Literal["shift", "drop"] = "shift"
    drop_width: Literal[DROP_WIDTHS] = 8
    # Set from ExperimentConfig.dim; not a key of the [encoding] section.
    dim: int = field(default=2048, metadata={"set_by": "experiment.dim"})

    def __post_init__(self):
        check_choices(self)
        if self.n < 1:
            raise ConfigError("n-gram width must be at least 1")
        if self.scheme == "ngram" and self.n < 2:
            raise ConfigError("ngram scheme requires n >= 2")
        if self.levels < 2:
            raise ConfigError("need at least 2 quantization levels")
        check_alignment(self.dim)


def _pairwise_quasi_orthogonal(rows):
    dim = rows.shape[1]
    packed = pack_rows(rows)
    spread = np.abs(hamming_matrix(packed, packed) - dim // 2)
    np.fill_diagonal(spread, 0)
    return bool((spread <= 4 * math.sqrt(dim)).all())


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


def record_table(im, lm):
    """(F, L, dim/8) packed bound rows of a record encoding: row [f, l] is
    bind(item row f, level row l), bound packed, since XOR commutes with packing.
    Built once per run; encode_record counts from it."""
    return bind(np.packbits(im, axis=-1)[:, None], np.packbits(lm, axis=-1))


def encode_record(features, table, ledger=None):
    """Spatial encoding of an (n, F) batch: row r bundles, over positions f,
    bind(item row f, level row of features[r, f]), row [f, level] of a
    record_table.

    Returns the (levels, n, dim/64) count planes and the bundle size F.
    Charges n * F multiplications, then n * F additions.
    """
    features = np.asarray(features, dtype=np.float64)
    n_features, n_levels, width = table.shape
    if features.ndim != 2 or features.shape[1] != n_features:
        raise DimensionError(f"expected an (n, {n_features}) feature batch, got shape {features.shape}")
    if np.isnan(features).any():
        raise ValueError("a NaN feature has no quantization level")
    n = len(features)
    index = np.add(quantize(features, n_levels).T, np.arange(n_features)[:, None] * n_levels, dtype=np.int32)
    planes = _count_grams(table.reshape(-1, width), index[None])
    charge_to(ledger, "multiplication", n * n_features)
    charge_to(ledger, "addition", n * n_features)
    return planes, n_features


def _ngram_block(symbols, n, vocabulary, cfg, rng):
    """Check an n-gram block before any tail is drawn: IndexError for a symbol
    outside the vocabulary's item memory rows. Returns the symbols as an array,
    the block shape, the window count, whether drop mode is on and the passes
    per window."""
    if n < 1:
        raise ValueError("n-gram width must be at least 1")
    symbols = np.asarray(symbols)
    if symbols.shape[-1] < n:
        raise ConfigError(f"sequence of length {symbols.shape[-1]} is shorter than n={n}")
    drop = cfg.permute_mode == "drop"
    if drop and rng is None:
        raise ConfigError("drop-mode permutation needs an rng for the random tail")
    if symbols.size and not 0 <= symbols.min() <= symbols.max() < vocabulary:
        raise IndexError(f"symbols must index the {vocabulary} item memory rows")
    passes = n * (n - 1) // 2 if drop else n - 1
    return symbols, symbols.shape[:-1], symbols.shape[-1] - n + 1, drop, passes


def encode_ngram(symbols, n, im, cfg, rng=None, ledger=None):
    """Temporal encoding of a (B, T) block of equal-length symbol sequences
    (a (T,) row is one): the (B, dim) int16 bipolar sums and the window count.

    Window (s_t, ..., s_{t+n-1}) contributes bind over k of the k-step
    permutation of the item row of s_{t+n-1-k}, so older symbols are permuted
    more. Shift mode rotates by k in one pass; drop mode makes k drop passes,
    each with its own random tail. Drop mode draws all tails of the block at
    once, sequence-major: the same stream as one draw per pass. Each window
    costs n - 1 multiplications, one addition and one permutation per pass.
    A symbol outside the item memory's rows raises IndexError before any draw.

    This is the per-window definition, kept for the tests and bench/tracer.py;
    runs encode with encode_ngram_packed, which gives the same results.
    """
    symbols, block, windows, drop, passes = _ngram_block(symbols, n, len(im), cfg, rng)
    if drop:
        shape = (*block, windows, passes, cfg.drop_width)
        tails = rng.integers(0, 2, size=shape, dtype=np.uint8)
    sums = np.zeros((*block, im.shape[1]), dtype=np.int16)
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
        sums = bundle_add(sums, gram)
    grams = math.prod(block) * windows
    charge_to(ledger, "permutation", grams * passes)
    charge_to(ledger, "multiplication", grams * (n - 1))
    charge_to(ledger, "addition", grams)
    return sums, windows


def ngram_table(im, n, cfg):
    """(n, V, dim/8) packed permuted item memories of n-gram encoding: layer j
    is the table of a window's symbol j, the item memory after step n-1-j's
    permutation. Built once per run; encode_ngram_packed counts from it.

    Shift mode rotates by k; drop mode shifts left by k*w/8 bytes with zeros
    behind, because k drop passes leave the row from bit k*w on, followed by
    the k tails, and w is whole bytes.
    """
    if cfg.permute_mode == "drop":
        packed = np.packbits(im, axis=-1)
        width, step = packed.shape[1], cfg.drop_width // 8
        tables = [np.pad(packed[:, min(k * step, width) :], ((0, 0), (0, min(k * step, width))))
                  for k in range(n)]
    else:
        tables = [np.packbits(permute_shift(im, k), axis=-1) for k in range(n)]
    return np.stack(tables[::-1])


def encode_ngram_packed(symbols, table, cfg, rng=None, ledger=None):
    """encode_ngram(symbols, n, im, cfg, rng, ledger) from packed grams, with
    table = ngram_table(im, n, cfg), all windows of the block at once: the
    (levels, *block, dim/64) count planes of its 1 bits and the window count.
    Charges, errors and the single tail draw are encode_ngram's.

    A window's gram is the XOR of its n table rows; drop mode XORs its tails,
    folded into one right-aligned (n-1)*w/8-byte block, into its last bytes.
    """
    n, vocabulary, width = table.shape
    symbols, block, windows, drop, passes = _ngram_block(symbols, n, vocabulary, cfg, rng)
    rows = math.prod(block)
    fold = None
    if drop:
        step = cfg.drop_width // 8
        tails = packed_random_bits(rows * windows * passes * cfg.drop_width, rng)
        tails = tails.reshape(rows, windows, passes * step).swapaxes(0, 1)
        fold = np.zeros((windows, rows, (n - 1) * step), dtype=np.uint8)
        for k in range(1, n):  # step k's tails are passes k(k-1)/2 on, and end its row
            first = k * (k - 1) // 2 * step
            fold[..., fold.shape[-1] - k * step :] ^= tails[..., first : first + k * step]
        fold = fold[..., max(fold.shape[-1] - width, 0) :]
    # Window t's symbol j takes layer j: one index per gathered row of the
    # stacked table. Its n * V rows hold 16 bytes or more each, so int32
    # indexes any table that fits in memory, in half the memory of intp.
    windowed = sliding_window_view(symbols.reshape(rows, windows + n - 1), n, axis=1)
    index = np.add(windowed.T, (np.arange(n) * vocabulary)[:, None, None], dtype=np.int32)
    planes = _count_grams(table.reshape(n * vocabulary, width), index, fold)
    grams = rows * windows
    charge_to(ledger, "permutation", grams * passes)
    charge_to(ledger, "multiplication", grams * (n - 1))
    charge_to(ledger, "addition", grams)
    return planes.reshape(len(planes), *block, width // 8), windows


def _count_grams(table, index, fold=None):
    """(windows.bit_length(), rows, dim/64) count planes of the grams of a
    (terms, windows, rows) index into a packed (N, dim/8) table: gram (t, r)
    is the XOR of rows index[:, t, r], its last bytes XORed with fold[t, r]
    when fold is given. An hvcore.PlaneCounter counts the grams, gathered
    GRAM_CHUNK_CELLS bits at a time and never unpacked. SaturationError is
    raised when a count exceeds COUNT_MAX."""
    (terms, windows, rows), width = index.shape, table.shape[1]
    # A chunk's windows are counted as pairs in lanes: lane j counts windows
    # start + j and start + lanes + j, all lanes in one ufunc call.
    lanes = min(max(1, GRAM_CHUNK_CELLS // max(16 * rows * width, 1)), (windows + 1) // 2)
    chunk = 2 * lanes
    gathered = np.empty((terms, chunk, rows, width), dtype=np.uint8)
    pair = gathered[0].view(np.uint64).reshape(2, lanes, rows, width // 8)  # the grams, as words
    counter = PlaneCounter(2 * -(-windows // chunk), pair.shape[1:])
    for start in range(0, windows, chunk):
        stop = min(start + chunk, windows)
        # Every index is below the table's rows, so none needs clipping.
        grams, *older = table.take(index[:, start:stop], axis=0, out=gathered[:, : stop - start],
                                   mode="clip")
        for row in older:
            grams ^= row
        if fold is not None:
            grams[..., width - fold.shape[-1] :] ^= fold[start:stop]
        if stop - start < chunk:  # a short last chunk pairs the rest with zero grams
            gathered[0, stop - start :] = 0
        counter.add(*pair)
    planes = plane_sum(counter.finish())[: windows.bit_length()]
    # COUNT_MAX is 2**15 - 1, so exactly the counts above it have a bit at level 15 or higher.
    if planes[COUNT_MAX.bit_length() :].any():
        raise SaturationError("a bundle count would overflow a 16-bit counter")
    return planes
