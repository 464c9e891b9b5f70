"""MAP hypervector algebra on bank-aligned bipolar vectors.

Bit convention used everywhere in this package: stored bit 0 encodes bipolar
+1 and bit 1 encodes -1, so binding is a plain XOR and Hamming distance is
the similarity metric. Bundling accumulates into signed 16-bit counters (the
accelerator's cache word width); counter i tallies how many bundled vectors
carried bit 1 at position i, and majority binarization thresholds those
counts at half the bundle size.

Vectors are sized in whole 128-column bank rows, at most 16 banks (2048
bits). All operations are pure: inputs are never mutated, and backing arrays
are marked read-only on construction.
"""

from dataclasses import dataclass

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

DROP_WIDTHS = (0, 8, 16)

# Seed of the pseudo-random tie-break stream used by majority(); fixed so
# that exact-majority ties resolve identically across runs.
TIE_BREAK_SEED = 1021


def check_alignment(dim):
    """Raise AlignmentError unless dim is a positive multiple of 128, at most 2048."""
    if dim <= 0 or dim % BANK_COLS != 0 or dim > MAX_DIM:
        raise AlignmentError(
            f"dim must be a positive multiple of {BANK_COLS} and at most {MAX_DIM}, got {dim}"
        )


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionError(f"operand dims differ: {a.dim} vs {b.dim}")


@dataclass
class Rng:
    """Seeded random bit source (PCG64). Same seed, same stream."""

    seed: int

    def __post_init__(self):
        self._generator = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self):
        return self._generator


def derive_seed(master, stream):
    """Stable child seed for a named substream of a master seed."""
    import zlib

    ss = np.random.SeedSequence([int(master) & 0xFFFFFFFF, zlib.crc32(stream.encode())])
    return int(ss.generate_state(1)[0])


@dataclass(eq=False)
class BipolarHV:
    """Bank-aligned binary hypervector; bit b at index i encodes 1 - 2*b."""

    dim: int
    bits: np.ndarray

    def __post_init__(self):
        check_alignment(self.dim)
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.shape != (self.dim,):
            raise DimensionError(f"expected {self.dim} bits, got shape {bits.shape}")
        if bits.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        bits.setflags(write=False)
        self.bits = bits

    @classmethod
    def from_bits(cls, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(len(bits), bits)

    def __eq__(self, other):
        if not isinstance(other, BipolarHV):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"BipolarHV(dim={self.dim}, ones={int(self.bits.sum())})"


@dataclass(eq=False)
class AccumulatorHV:
    """Bundling workspace: per-index signed 16-bit counts of bit-1 occurrences."""

    dim: int
    counts: np.ndarray
    n_bundled: int = 0

    def __post_init__(self):
        check_alignment(self.dim)
        counts = np.asarray(self.counts)
        if counts.shape != (self.dim,):
            raise DimensionError(f"expected {self.dim} counts, got shape {counts.shape}")
        if counts.dtype != np.int16:
            if counts.size and (counts.min() < COUNT_MIN or counts.max() > COUNT_MAX):
                raise SaturationError("counts outside the signed 16-bit range")
            counts = counts.astype(np.int16)
        if self.n_bundled < 0:
            raise ValueError("n_bundled must be non-negative")
        counts.setflags(write=False)
        self.counts = counts

    @classmethod
    def zeros(cls, dim):
        return cls(dim, np.zeros(dim, dtype=np.int16), 0)

    def __eq__(self, other):
        if not isinstance(other, AccumulatorHV):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.n_bundled == other.n_bundled
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self):
        return f"AccumulatorHV(dim={self.dim}, n_bundled={self.n_bundled})"


def random_bits(n, dim, rng):
    """(n, dim) i.i.d. uniform bits; the same stream as n random_hv calls."""
    check_alignment(dim)
    return rng.generator.integers(0, 2, size=(n, dim), dtype=np.uint8)


def random_hv(dim, rng):
    """Fresh i.i.d. uniform hypervector of the given bank-aligned width."""
    return BipolarHV(dim, random_bits(1, dim, rng)[0])


def bind(a, b):
    """Elementwise bipolar multiplication, realized as XOR."""
    _check_same_dim(a, b)
    return BipolarHV(a.dim, a.bits ^ b.bits)


def bundle_add(acc, hv):
    """Add one bipolar vector into the accumulator (+1 where its bit is 1)."""
    _check_same_dim(acc, hv)
    hits = hv.bits != 0
    if np.any(acc.counts[hits] == COUNT_MAX):
        raise SaturationError("bundle_add would overflow a 16-bit counter")
    return AccumulatorHV(acc.dim, acc.counts + hv.bits, acc.n_bundled + 1)


def bundle_sub(acc, hv):
    """Remove one bipolar vector from the accumulator (-1 where its bit is 1)."""
    _check_same_dim(acc, hv)
    if acc.n_bundled == 0:
        raise EmptyBundleError("cannot subtract from an empty bundle")
    hits = hv.bits != 0
    if np.any(acc.counts[hits] == COUNT_MIN):
        raise SaturationError("bundle_sub would underflow a 16-bit counter")
    return AccumulatorHV(acc.dim, acc.counts - hv.bits, acc.n_bundled - 1)


def majority(counts, sizes):
    """(n, dim) uint8 majority bits of n bundles with (n, dim) counts and (n,) sizes.

    Bit i of row r is 1 when counts[r, i] > sizes[r] / 2 and 0 when below.
    Exact ties (possible only for even bundle sizes) take bit i of one
    pseudo-random draw from the fixed tie-break seed, shared by every row, so
    results are reproducible.
    """
    counts = np.asarray(counts)
    if counts.dtype != np.int16 and counts.size and (
        counts.min() < COUNT_MIN or counts.max() > COUNT_MAX
    ):
        raise SaturationError("counts outside the signed 16-bit range")
    half = np.asarray(sizes).reshape(-1, 1) / 2.0
    if not half.all():
        raise EmptyBundleError("cannot binarize an empty bundle")
    bits = (counts > half).astype(np.uint8)
    ties = counts == half
    if ties.any():
        tie_rng = np.random.default_rng([TIE_BREAK_SEED, counts.shape[1]])
        tie_bits = tie_rng.integers(0, 2, size=counts.shape[1], dtype=np.uint8)
        bits = np.where(ties, tie_bits, bits)
    return bits


def binarize(acc):
    """Majority sign of one bundle, as majority() gives it."""
    return BipolarHV(acc.dim, majority(acc.counts[None], [acc.n_bundled])[0])


def permute_shift(hv, s):
    """Circular left shift: result_i = hv_(i+s mod dim)."""
    if not 0 <= s < hv.dim:
        raise ValueError(f"shift must satisfy 0 <= s < dim, got {s}")
    return BipolarHV(hv.dim, np.roll(hv.bits, -s))


def permute_drop(hv, s, rng):
    """Shift left by s without wrap-around; the freed tail gets fresh random bits.

    Models a batch-wise read that skips the first s bits, so only the batch
    widths the read mux supports are allowed (s in {0, 8, 16}).
    """
    if s not in DROP_WIDTHS:
        raise ConfigError(f"drop width must be one of {DROP_WIDTHS}, got {s}")
    if s == 0:
        return BipolarHV(hv.dim, hv.bits.copy())
    tail = rng.generator.integers(0, 2, size=s, dtype=np.uint8)
    return BipolarHV(hv.dim, np.concatenate([hv.bits[s:], tail]))


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
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"operand widths differ: {a.shape[1]} vs {b.shape[1]}")
    words = _packed_words(a)[:, None, :] ^ _packed_words(b)[None, :, :]
    return np.bitwise_count(words).sum(axis=2, dtype=np.int64)


def hamming(a, b):
    """Number of mismatching bit positions."""
    _check_same_dim(a, b)
    return int(hamming_matrix(a.bits, b.bits)[0, 0])


def _bipolar_values(x):
    if isinstance(x, BipolarHV):
        return 1.0 - 2.0 * x.bits.astype(np.float64), True
    if isinstance(x, AccumulatorHV):
        return x.counts.astype(np.float64) - x.n_bundled / 2.0, False
    raise TypeError(f"expected BipolarHV or AccumulatorHV, got {type(x).__name__}")


def dot_bipolar(a, b):
    """Bipolar dot product.

    Binary operands use values 1 - 2*bit, so for two binary vectors the
    result equals dim - 2 * hamming(a, b). Accumulator operands use centered
    counts (counts_i - n_bundled / 2); note the centered axis points toward
    bit 1, so mixing a binary and an accumulator operand flips orientation.
    """
    _check_same_dim(a, b)
    va, a_binary = _bipolar_values(a)
    vb, b_binary = _bipolar_values(b)
    total = float(np.dot(va, vb))
    if a_binary and b_binary:
        return int(round(total))
    return total
