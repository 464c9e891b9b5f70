"""MAP hypervector algebra on bank-aligned bit rows.

Bit convention used everywhere in this package: stored bit 0 encodes bipolar
+1 and bit 1 encodes -1, so binding is a plain XOR and Hamming distance is
the similarity metric. Bundling accumulates the bipolar values into signed
16-bit counters (the accelerator's cache word width): counter i holds the sum
of the bundled vectors' +1 and -1 at position i, and majority binarization
takes its sign, a negative sum giving bit 1.

A hypervector is a (dim,) uint8 row of bits, a bundle is a (dim,) int16 row
of bipolar sums, and sets of either are (n, dim) matrices; bind, bundling
and permutation act on the last axis, so they take either. Once encoded, a
row is packed, (dim/64,) uint64 words in np.packbits order: majority returns
packed rows, hamming_matrix counts them, pack_rows and unpack_rows convert.
Vectors are sized in whole 128-column bank rows, at most 16 banks (2048
bits). All functions are pure: they return new arrays, never mutate their
inputs, and only random_bits and packed_random_bits draw random numbers
(majority's tie bits are one such draw, from a fixed seed).

The run-path encoders count instead, bit-sliced: count planes are a
(levels, ..., dim/64) uint64 array whose plane k packs bit k of every
bundle's count of 1 bits. A PlaneCounter counts packed rows into them,
plane_sum adds lanes of them, plane_majority binarizes them and plane_counts
rebuilds the int16 counts; a bundle of size rows has sums size - 2 * counts.
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

COUNT_MAX = 32767  # largest |bipolar sum| (and plane count) a 16-bit counter holds

DROP_WIDTHS = (8, 16)

HAMMING_BLOCK_WORDS = 2**18  # words of pairwise XOR hamming_matrix holds at a time (2 MB)

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


def packed_random_bits(count, rng):
    """(count/8,) uint8: np.packbits(rng.integers(0, 2, count, dtype=np.uint8))
    for a count that is a multiple of 8, drawn from the same stream into a
    buffer of the same size, without a byte per bit. numpy's bounded uint8
    draw (Lemire) takes for bit i the top bit of byte i % 4, low byte first,
    of the (i // 4)-th 32-bit output; viewed as little-endian uint64 words,
    8 bits each sit at the top of a byte, and one multiply gathers them into
    the top byte, first bit highest."""
    if count % 8:
        raise ValueError(f"bit count must be a multiple of 8, got {count}")
    words = rng.integers(0, 2**32, size=count // 4, dtype=np.uint32).view(np.uint64)
    words >>= 7
    words &= 0x0101010101010101
    words *= 0x8040201008040201
    words >>= 56
    return words.astype(np.uint8)


def bind(a, b):
    """Elementwise bipolar multiplication of two bit rows, realized as XOR."""
    _check_width(a, b)
    return a ^ b


def bundle_add(sums, bits):
    """A bundle's int16 sum row with one bit row's bipolar row, 1 - 2 * bits, added."""
    _check_width(sums, bits)
    step = 1 - 2 * np.asarray(bits, dtype=np.int16)
    if np.any(sums == COUNT_MAX * step):
        raise SaturationError("bundle_add would take a 16-bit sum past +-32767")
    return sums + step


def bundle_sub(sums, bits):
    """A bundle's int16 sum row with one bit row's bipolar row subtracted.
    Any bundle admits it, an empty one too, even one that never held the row."""
    _check_width(sums, bits)
    step = 1 - 2 * np.asarray(bits, dtype=np.int16)
    if np.any(sums == -COUNT_MAX * step):
        raise SaturationError("bundle_sub would take a 16-bit sum past +-32767")
    return sums - step


def pack_rows(bits):
    """(..., dim) bit rows as (..., dim/64) uint64 packed rows: dim is whole banks, so whole words."""
    return np.packbits(bits, axis=-1).view(np.uint64)


def unpack_rows(words):
    """(..., words) uint64 packed rows as (..., 64 * words) uint8 bits."""
    bits = np.unpackbits(words.view(np.uint8).reshape(-1))
    return bits.reshape(*words.shape[:-1], 64 * words.shape[-1])


@functools.cache
def _tie_words(dim):
    """majority()'s packed (dim/64,) tie-break row, drawn on first use: a draw
    at import would make importing this module import numpy.random."""
    words = pack_rows(random_bits(1, dim, Rng([TIE_BREAK_SEED, dim]))[0])
    words.flags.writeable = False
    return words


def majority(sums):
    """(n, dim/64) packed majority rows of n bundles with (n, dim) bipolar sums.

    Bit i of row r is the sign of sums[r, i]: 1 when negative, 0 when
    positive. Exact ties, zero sums (only at even sizes), take bit i of one
    pseudo-random draw from the fixed tie-break seed, shared by every row, so
    results are reproducible.
    """
    sums = np.asarray(sums)
    words = pack_rows(sums < 0)
    ties = sums == 0
    if ties.any():  # a zero sum's bit is 0 until the tie sets it
        words |= pack_rows(ties) & _tie_words(sums.shape[1])
    return words


def plane_compare(planes, value):
    """Packed masks of the counts held in bit-sliced count planes, (gt, eq):
    bit i of gt is 1 where count i exceeds value, of eq where it equals it.

    planes is (levels, ..., words) uint64, plane k holding bit k of every
    count; the comparison runs from the top plane down, as a comparator
    does, on whole words.
    """
    gt = np.zeros(planes.shape[1:], dtype=np.uint64)
    if value >> len(planes):  # every count is below 2**levels <= value
        return gt, np.zeros_like(gt)
    eq = np.full(gt.shape, np.uint64(2**64 - 1))
    hit = np.empty_like(gt)
    for k in range(len(planes) - 1, -1, -1):
        if value >> k & 1:  # a 0 bit here leaves the count below value
            eq &= planes[k]
        else:  # a 1 bit here puts the still-equal counts above value
            np.bitwise_and(eq, planes[k], out=hit)
            gt |= hit
            eq ^= hit
    return gt, eq


def plane_majority(planes, size):
    """Packed majority rows of bundles of size rows from their count planes,
    as majority() gives them for the sums size - 2 * counts: a count above
    size // 2 is 1, and an exact tie at an even size takes the tie-break bit."""
    if size < 1:
        raise EmptyBundleError("cannot binarize an empty bundle")
    gt, eq = plane_compare(planes, size // 2)
    if size % 2 == 0:
        gt |= eq & _tie_words(64 * planes.shape[-1])
    return gt


def plane_counts(planes, out=None):
    """The int16 counts that count planes hold, rebuilt top plane first:
    counts = 2 * counts + plane, one unpacked plane at a time. Writes into
    out when given. The counts must fit in int16."""
    if out is None:
        out = np.empty((*planes.shape[1:-1], 64 * planes.shape[-1]), dtype=np.int16)
    out[...] = unpack_rows(planes[-1]) if len(planes) else 0
    for plane in planes[-2::-1]:
        out += out  # doubles the counts: faster than an int16 shift here
        out += unpack_rows(plane)
    return out


def _full_add(plane, a, b, spare, out):
    """plane + a + b = plane' + 2 * out, bitwise on packed words, in five
    ufuncs; overwrites b, and out may be a."""
    np.bitwise_xor(a, b, out=spare)
    np.bitwise_and(a, b, out=out)
    np.bitwise_and(spare, plane, out=b)
    out |= b
    plane ^= spare


def _ripple(planes, carry, free, level, top):
    """Add a carry of weight 2**level to planes[level:top] by half adders;
    carry and free are both overwritten."""
    for plane in planes[level:top]:
        np.bitwise_and(plane, carry, out=free)
        plane ^= carry
        carry, free = free, carry


class PlaneCounter:
    """A carry-save counter of packed rows: the count planes of up to `most`
    rows of shape (..., words), (levels, ..., words) uint64 with levels
    most.bit_length() but at least 2.

    add(a, b) counts a pair of rows and overwrites both: one full adder with
    plane 0. The carry of every odd pair waits in one held buffer; the next
    pair's carry meets it in a full adder with plane 1, whose carry ripples
    up by half adders, no further than the rows counted so far can reach.
    finish() adds a carry still held and returns the planes.
    """

    def __init__(self, most, shape):
        self.planes = np.zeros((max(most, 2).bit_length(), *shape), dtype=np.uint64)
        self.levels = list(self.planes)  # one view per plane, made once
        self.held = np.empty(shape, dtype=np.uint64)
        self.spare = np.empty(shape, dtype=np.uint64)
        self.pairs = 0

    def add(self, a, b):
        self.pairs += 1
        if self.pairs % 2:
            _full_add(self.levels[0], a, b, self.spare, out=self.held)
            return
        _full_add(self.levels[0], a, b, self.spare, out=a)
        _full_add(self.levels[1], self.held, a, self.spare, out=b)
        _ripple(self.levels, b, a, 2, (2 * self.pairs).bit_length())

    def finish(self):
        if self.pairs % 2:
            _ripple(self.levels, self.held, self.spare, 1, len(self.levels))
        return self.planes


def plane_sum(planes):
    """The counts of (levels, lanes, ...) count planes summed over the lanes:
    (levels + ceil(log2(lanes)), ...) planes. Lanes are added pairwise by
    ripple-carry adders (five bitwise ufuncs per plane), halving the lanes
    at each step; the top planes of the result may be all zero."""
    while planes.shape[1] > 1:
        half, lanes = planes.shape[1] // 2, planes.shape[1]
        out = np.empty((len(planes) + 1, lanes - half, *planes.shape[2:]), dtype=np.uint64)
        if lanes % 2:  # the odd lane out passes through
            out[:-1, half] = planes[:, -1]
            out[-1, half] = 0
        carry = np.zeros((half, *planes.shape[2:]), dtype=np.uint64)
        spare = np.empty_like(carry)
        for k, (x, y) in enumerate(zip(planes[:, :half], planes[:, half : 2 * half])):
            np.bitwise_xor(x, y, out=spare)
            np.bitwise_xor(spare, carry, out=out[k, :half])
            spare &= carry
            np.bitwise_and(x, y, out=carry)
            carry |= spare
        out[-1, :half] = carry
        planes = out
    return planes[:, 0]


def binarize(sums):
    """Packed majority row of one bundle, as majority() gives it."""
    # Kept as a name of its own because bench/tracer.py counts its calls.
    return majority(sums[None])[0]


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


def hamming_matrix(a, b):
    """Hamming distances between the rows of two matrices of packed rows, (n_a, n_b) int64:
    popcounts of their XOR, so bit rows (or single rows) work too, taken for
    HAMMING_BLOCK_WORDS words of a's rows at a time."""
    _check_width(a, b)
    a, b = np.atleast_2d(a, b)
    out = np.empty((len(a), len(b)), dtype=np.int64)
    step = max(1, HAMMING_BLOCK_WORDS // max(b.size, 1))
    for i in range(0, len(a), step):
        np.bitwise_count(a[i : i + step, None] ^ b).sum(axis=2, dtype=np.int64, out=out[i : i + step])
    return out
