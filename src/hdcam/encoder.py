"""Item/level memories and record / n-gram MAP encoders.

Item and level memories are (V, dim) and (L, dim) bit matrices, one row per
symbol or level. Record encoding binds each feature position's item row to
the level row of the quantized value and bundles over positions, for a whole
(n, F) batch of feature rows at once. N-gram encoding binds permuted symbol
rows across a sliding window, permuting older symbols more, and bundles all
windows, for a whole (B, T) block of equal-length sequences at once. Bundles
are int16 counts plus the number of rows bundled.

encode_ngram_packed is the n-gram encoder of the run path: it works on packed
grams of all windows at once. encode_ngram is the per-window definition it
must match, kept as the reference for the tests and for bench/tracer.py.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost import charge_to
from .errors import ConfigError, DimensionError, GenerationError, SaturationError, TooManyLevelsError
from .hvcore import (
    COUNT_MAX,
    DROP_WIDTHS,
    PlaneCounter,
    bind,
    bundle_add,
    check_alignment,
    hamming_matrix,
    permute_drop,
    permute_shift,
    plane_compare,
    plane_sum,
    random_bits,
)

# Gram bits (windows x rows x dim) that encode_ngram_packed gathers at a time:
# 2 windows of a 64-row block at dim 2048, n * 32 KB of packed table rows.
GRAM_CHUNK_CELLS = 2**18


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


def _ngram_block(symbols, n, im, cfg, rng):
    """Check an n-gram block before any tail is drawn: IndexError for a symbol
    outside the item memory's rows. Returns the symbols as an array, the block
    shape, the window count, whether drop mode is on and the passes per window."""
    if n < 1:
        raise ValueError("n-gram width must be at least 1")
    symbols = np.asarray(symbols)
    if symbols.shape[-1] < n:
        raise ConfigError(f"sequence of length {symbols.shape[-1]} is shorter than n={n}")
    drop = cfg.permute_mode == "drop"
    if drop and rng is None:
        raise ConfigError("drop-mode permutation needs an rng for the random tail")
    if symbols.size and not 0 <= symbols.min() <= symbols.max() < len(im):
        raise IndexError(f"symbols must index the {len(im)} item memory rows")
    passes = n * (n - 1) // 2 if drop else n - 1
    return symbols, symbols.shape[:-1], symbols.shape[-1] - n + 1, drop, passes


def encode_ngram(symbols, n, im, cfg, rng=None, ledger=None):
    """Temporal encoding of a (B, T) block of equal-length symbol sequences
    (a (T,) row is one): the (B, dim) int16 counts and the window count.

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
    symbols, block, windows, drop, passes = _ngram_block(symbols, n, im, cfg, rng)
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


def encode_ngram_packed(symbols, n, im, cfg, rng=None, ledger=None):
    """encode_ngram from packed grams, all windows of the block at once, with
    the counts left bit-sliced: the (levels, *block, dim/64) uint64 count
    planes and the window count. levels is windows.bit_length(), and plane k
    packs bit k of every count; hvcore.plane_majority binarizes them and
    hvcore.plane_counts rebuilds encode_ngram's int16 counts. Charges, errors
    and the single tail draw are encode_ngram's. This is the run path's
    n-gram encoder; encode_ngram is its per-window definition.

    Table k is the item memory after step k's permutation, packed to dim/8
    bytes per symbol once per call: rotated by k in shift mode; in drop mode
    shifted left by k*w/8 bytes with zeros behind, because k drop passes leave
    the row from bit k*w on, followed by the k tails, and w is whole bytes.
    A window's gram is the XOR of its n table rows, gathered window-major as
    (windows, rows, dim/8), GRAM_CHUNK_CELLS bits (and an even number of
    windows) at a time; drop mode folds the gram's tails into one
    right-aligned (n-1)*w/8-byte block and XORs it into the last bytes.
    Grams are never unpacked: an hvcore.PlaneCounter counts them as uint64
    words, in pairs. SaturationError is raised when an exact count
    exceeds COUNT_MAX, the condition bundle_add checks window by window.
    """
    symbols, block, windows, drop, passes = _ngram_block(symbols, n, im, cfg, rng)
    rows, dim = math.prod(block), im.shape[1]
    width = dim // 8
    if drop:
        step = cfg.drop_width // 8
        tails = rng.integers(0, 2, size=(*block, windows, passes, cfg.drop_width), dtype=np.uint8)
        # Every tail is whole bytes, so packing the flat draw packs each tail on its own.
        tails = np.packbits(tails.reshape(-1)).reshape(rows, windows, passes * step).swapaxes(0, 1)
        fold = np.zeros((windows, rows, (n - 1) * step), dtype=np.uint8)
        for k in range(1, n):  # step k's tails are passes k(k-1)/2 on, and end its row
            first = k * (k - 1) // 2 * step
            fold[..., fold.shape[-1] - k * step :] ^= tails[..., first : first + k * step]
        fold = fold[..., max(fold.shape[-1] - width, 0) :]
        packed = np.packbits(im, axis=-1)
        tables = [np.pad(packed[:, min(k * step, width) :], ((0, 0), (0, min(k * step, width))))
                  for k in range(n)]
    else:
        tables = [np.packbits(permute_shift(im, k), axis=-1) for k in range(n)]
    # Window t's symbol j takes table n-1-j: one stacked table, one index per
    # gathered row. Its n * V rows hold 16 bytes or more each, so int32 indexes
    # any table that fits in memory, in half the memory of intp.
    table = np.concatenate(tables[::-1])
    windowed = sliding_window_view(symbols.reshape(rows, windows + n - 1), n, axis=1)
    index = np.add(windowed.T, (np.arange(n) * len(im))[:, None, None], dtype=np.int32)
    # A chunk's windows are counted as pairs in lanes: lane j counts windows
    # start + j and start + lanes + j, all lanes in one ufunc call.
    lanes = min(max(1, GRAM_CHUNK_CELLS // max(2 * rows * dim, 1)), (windows + 1) // 2)
    chunk = 2 * lanes
    gathered = np.empty((n, chunk, rows, width), dtype=np.uint8)
    pair = gathered[0].view(np.uint64).reshape(2, lanes, rows, dim // 64)  # the grams, as words
    counter = PlaneCounter(2 * -(-windows // chunk), pair.shape[1:])
    for start in range(0, windows, chunk):
        stop = min(start + chunk, windows)
        # The symbols were checked against the table's rows, so no index needs clipping.
        grams, *older = table.take(index[:, start:stop], axis=0, out=gathered[:, : stop - start],
                                   mode="clip")
        for row in older:
            grams ^= row
        if drop:
            grams[..., width - fold.shape[-1] :] ^= fold[start:stop]
        if stop - start < chunk:  # a short last chunk pairs the rest with zero grams
            gathered[0, stop - start :] = 0
        counter.add(*pair)
    planes = plane_sum(counter.finish())[: windows.bit_length()]
    if windows > COUNT_MAX and plane_compare(planes, COUNT_MAX)[0].any():
        raise SaturationError("bundle_add would overflow a 16-bit counter")
    grams = rows * windows
    charge_to(ledger, "permutation", grams * passes)
    charge_to(ledger, "multiplication", grams * (n - 1))
    charge_to(ledger, "addition", grams)
    return planes.reshape(len(planes), *block, dim // 64), windows
