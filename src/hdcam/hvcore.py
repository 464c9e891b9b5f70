"""MAP hypervector algebra on bank-aligned bit rows.

Bit convention used everywhere in this package: stored bit 0 encodes bipolar
+1 and bit 1 encodes -1, so binding is a plain XOR and Hamming distance is
the similarity metric. Bundling accumulates into signed 16-bit counters (the
accelerator's cache word width); counter i tallies how many bundled vectors
carried bit 1 at position i, and majority binarization thresholds those
counts at half the bundle size.

A hypervector is a (dim,) uint8 row of bits, a bundle is a (dim,) int16 row
of counts plus its integer size, and sets of either are (n, dim) matrices;
bind, bundling and permutation act on the last axis, so they take either.
Vectors are sized in whole 128-column bank rows, at most 16 banks (2048
bits). All operations are pure: they return new arrays, never mutate their
inputs, and only random_bits draws random numbers (majority's tie bits are
one such draw, from a fixed seed).
"""

import functools

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    DimensionError,
    EmptyBundleError,
    SaturationError,
)

BANK_COLS = 128
MAX_BANKS = 16
MAX_DIM = BANK_COLS * MAX_BANKS

COUNT_MAX = 32767
COUNT_MIN = -32768

DROP_WIDTHS = (8, 16)

# Seed of the pseudo-random tie-break stream used by majority(); fixed so
# that exact-majority ties resolve identically across runs.
TIE_BREAK_SEED = 1021


def check_alignment(dim):
    """Raise AlignmentError unless dim is a positive multiple of 128, at most 2048."""
    if dim <= 0 or dim % BANK_COLS != 0 or dim > MAX_DIM:
        raise AlignmentError(
            f"dim must be a positive multiple of {BANK_COLS} and at most {MAX_DIM}, got {dim}"
        )


def _check_width(a, b):
    if np.shape(a)[-1] != np.shape(b)[-1]:
        raise DimensionError(f"operand widths differ: {np.shape(a)[-1]} vs {np.shape(b)[-1]}")


def Rng(seed):
    """The package's seeded random stream: a numpy Generator on PCG64.
    Same seed, same stream. Nothing is drawn at import, so importing this
    module does not import numpy.random."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master, stream):
    """Stable child seed for a named substream of a master seed."""
    import zlib

    ss = np.random.SeedSequence([int(master), zlib.crc32(stream.encode())])
    return int(ss.generate_state(1)[0])


def random_bits(n, dim, rng):
    """(n, dim) i.i.d. uniform bits; row by row, the same stream as n draws of one row."""
    check_alignment(dim)
    return rng.integers(0, 2, size=(n, dim), dtype=np.uint8)


def bind(a, b):
    """Elementwise bipolar multiplication of two bit rows, realized as XOR."""
    _check_width(a, b)
    return a ^ b


def bundle_add(counts, bits):
    """A bundle's int16 count row with one bit row added (+1 where the bit is 1)."""
    _check_width(counts, bits)
    if counts.max(initial=0) == COUNT_MAX and np.any(counts[bits != 0] == COUNT_MAX):
        raise SaturationError("bundle_add would overflow a 16-bit counter")
    return counts + bits


def bundle_sub(counts, bits, size):
    """A bundle's int16 count row with one bit row removed (-1 where the bit is 1);
    size is the number of rows bundled so far."""
    _check_width(counts, bits)
    if size == 0:
        raise EmptyBundleError("cannot subtract from an empty bundle")
    if counts.min(initial=0) == COUNT_MIN and np.any(counts[bits != 0] == COUNT_MIN):
        raise SaturationError("bundle_sub would underflow a 16-bit counter")
    return counts - bits


@functools.cache
def _tie_bits(dim):
    """The (dim,) tie-break row of majority(), drawn on first use: a draw at
    import would make importing this module import numpy.random."""
    row = random_bits(1, dim, Rng([TIE_BREAK_SEED, dim]))[0]
    row.flags.writeable = False
    return row


def majority(counts, sizes):
    """(n, dim) uint8 majority bits of n bundles with (n, dim) integer counts and (n,) sizes.

    Bit i of row r is 1 when counts[r, i] > sizes[r] / 2, that is above
    sizes[r] // 2 in the counts' own dtype, and 0 when below. Exact ties
    (only at even sizes) take bit i of one pseudo-random draw from the fixed
    tie-break seed, shared by every row, so results are reproducible.
    """
    counts = np.asarray(counts)
    if counts.dtype != np.int16 and counts.size and (
        counts.min() < COUNT_MIN or counts.max() > COUNT_MAX
    ):
        raise SaturationError("counts outside the signed 16-bit range")
    sizes = np.asarray(sizes).reshape(-1)
    if not (sizes > 0).all():
        raise EmptyBundleError("cannot binarize an empty bundle")
    # No count exceeds cap, so clamping half to cap changes no bit, and a
    # clamped half is out of reach: only even sizes with half <= cap can tie.
    cap = min(COUNT_MAX, np.iinfo(counts.dtype).max)
    half = np.minimum(sizes // 2, cap).astype(counts.dtype)[:, None]
    bits = (counts > half).view(np.uint8)  # bools are 0/1 bytes: no second (n, dim) array
    even = (sizes % 2 == 0) & (sizes // 2 <= cap)
    ties = counts[even] == half[even]
    if ties.any():
        bits[even] = np.where(ties, _tie_bits(counts.shape[1]), bits[even])
    return bits


def binarize(counts, size):
    """Majority bits of one bundle, as majority() gives them."""
    # Kept as a name of its own because bench/tracer.py counts its calls.
    return majority(counts[None], [size])[0]


def permute_shift(bits, s):
    """Circular left shift along the last axis: result[..., i] = bits[..., (i+s) mod dim]."""
    if not 0 <= s < np.shape(bits)[-1]:
        raise ValueError(f"shift must satisfy 0 <= s < dim, got {s}")
    return np.concatenate((bits[..., s:], bits[..., :s]), axis=-1)


def permute_drop(bits, tail):
    """Shift bit rows left by w, the tail's width, without wrap-around: the
    last w positions take the caller's tail, one (..., w) row of fresh random
    bits per bit row. Models a batch-wise read that skips the first w bits,
    so w must be a batch width the read mux supports."""
    w = np.shape(tail)[-1]
    if w not in DROP_WIDTHS:
        raise ConfigError(f"drop width must be one of {DROP_WIDTHS}, got {w}")
    return np.concatenate((bits[..., w:], tail), axis=-1)


def _packed_words(bits):
    """(n, dim) bit matrix packed into uint64 words, zero-padded to whole words."""
    packed = np.packbits(np.atleast_2d(bits), axis=1)
    pad = -packed.shape[1] % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


def hamming_matrix(a, b):
    """Hamming distances between the rows of two (n, dim) bit matrices, (n_a, n_b) int64.

    Rows are packed into 64-bit words first, so the pairwise XOR holds
    dim / 64 words per pair rather than dim bytes.
    """
    _check_width(a, b)
    words = _packed_words(a)[:, None, :] ^ _packed_words(b)[None, :, :]
    return np.bitwise_count(words).sum(axis=2, dtype=np.int64)
