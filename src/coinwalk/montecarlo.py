"""Seeded Monte Carlo route for scales enumeration cannot reach.

Randomness comes from splitmix64, small enough to specify completely: with
64-bit wrapping arithmetic,

    word(seed, i) = mix(seed + (i + 1) * 0x9E3779B97F4A7C15)
    mix(x): x ^= x >> 30; x *= 0xBF58476D1CE4E5B9;
            x ^= x >> 27; x *= 0x94D049BB133111EB;
            x ^= x >> 31

which is the i-th output of the classic splitmix64 stream started at
``seed``.  Test vectors (frozen in the test suite): word(0, 0) =
0xE220A8397B1DCDAF is the well-known first output for seed 0, and
word(42, 0..2) pin this exact generator.

Walk j consumes words j*W .. j*W + W - 1, W = ceil(m / 64); step k of the
walk is bit (k-1) % 64 (LSB first) of word (k-1) // 64 in that range, set
bit = +1.  Because every word is addressed absolutely, the histogram is
bit-identical no matter how the sample range is partitioned into blocks,
so any internal or concurrent blocking is invisible.

`simulate` counts with the enumeration module's kernel, `_BLOCK` (2^16)
walks at a time, each block from fresh state in one pass.  The kernel's unit
is the pair of steps (2j, 2j+1), j = 0..m // 2, with steps 0 and m+1 virtual
zero bits: it adds the pair's bits into each walk's up-step count u, and
compares u with j+1 after them, since Chung-Feller steps 2j+1 and 2j+2 count
together (and u with j between them under the non-negative rule).  So a
Chung-Feller block feeds each pair as (0, f_j), f_j = b_2j + b_2j+1 its
up-count, and a non-negative block as its two bits.
Word column t of a block (word t of every walk) is made just before the
pairs it holds, the kernel's `_SLICE` (2^14) walks at a time.  The stream is
read shifted up one bit, W'_t = (W_t << 1) | (W_{t-1} >> 63) with W_{-1} = 0,
so bit i of W'_t is step 64t + i and pair j sits at bits 2j, 2j+1 of
W'_{j // 32}; bits past step m are zeroed.  A slice's words are the
column's constant, seed + (t+1) * golden plus the slice's first walk's
offset, added to the slice's lane offsets i * W * golden and mixed in place;
its three uint64 buffers are 128 KB each, and the carry W_{t-1} >> 63 is one
byte per walk of the block.
For Chung-Feller one SWAR add, (W' & 0x55..55) + ((W' >> 1) & 0x55..55),
turns every pair into a 2-bit field holding f_j.  Each slice is then
transposed into its columns of the block's 64 / w rows of the kernel's w-bit
unsigned type (`oracle._widths(m)`; four uint16 rows for m = 1000), and each
pair's field is shifted and masked out of its row into a reused buffer of
that type.  A Chung-Feller pair thus costs five numpy calls (shift, mask,
add, compare, tally), fewer at a row's ends, about 2.5 per step.  Bits in
the kernel's own width, and its int8 flag tallies, keep every per-pair numpy
call a same-type loop.  A block holds its rows, the carry, three slice
buffers and the kernel's counters, so its memory does not grow with m: a
full block of m = 1000 walks peaks at about 1.5 MiB traced by tracemalloc
(1.8 MiB under the non-negative rule), where a whole 64-bit column with a
64-bit carry took 3.0 MiB (3.3).  `simulate` lets each block's arrays go
before it builds the next block, so a run of many blocks peaks as one does.
The independent references are `walk_steps`, which rebuilds any sample's steps in
plain Python, and `count_positive`, the per-path rule the tests re-count walks
with.  Floating point appears only in the reporting helpers (`tv_distance`,
`arcsine_sup_distance`), never in the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Distribution, _counts
from .errors import DomainError
from .oracle import _BLOCK, _SLICE, PositivityRule, _count_walks, _widths

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_EVEN_BITS = 0x5555555555555555  # the low bit of every 2-bit field


def splitmix64(seed: int, index: int) -> int:
    """Reference scalar implementation of word(seed, index)."""
    x = (seed + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def _mix_block(x: np.ndarray, spare: np.ndarray) -> None:
    """splitmix64's output mix of every word of x, in place, with `spare` for the shifts."""
    x ^= np.right_shift(x, 30, out=spare)
    x *= np.uint64(_MIX1)
    x ^= np.right_shift(x, 27, out=spare)
    x *= np.uint64(_MIX2)
    x ^= np.right_shift(x, 31, out=spare)


@dataclass(frozen=True)
class SimConfig:
    """Walk length, sample count, seed, and counting rule for one run."""

    m: int
    samples: int
    seed: int
    rule: PositivityRule = PositivityRule.CHUNG_FELLER

    def __post_init__(self):
        if self.m < 0:
            raise DomainError("walk length must be non-negative")
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if (self.m + 2) * 8 > np.iinfo(np.intp).max:  # simulate's int64 histogram has m + 2 slots
            raise DomainError(f"walk length {self.m} is too long for a histogram in memory")


def _words_per_walk(m: int) -> int:
    return (m + 63) // 64


def walk_steps(cfg: SimConfig, index: int) -> list[int]:
    """The +-1 steps of sample `index`, reconstructed in plain Python."""
    if not 0 <= index < cfg.samples:
        raise DomainError(f"sample index {index} outside 0..{cfg.samples - 1}")
    w = _words_per_walk(cfg.m)
    words = [splitmix64(cfg.seed, index * w + t) for t in range(w)]
    return [1 if (words[k // 64] >> (k % 64)) & 1 else -1 for k in range(cfg.m)]


def _block_pairs(seed: int, m: int, start: int, stop: int, split: bool):
    """Yield the kernel's pairs (steps 2j, 2j+1), j = 0..m // 2, of walks start..stop-1.

    With `split` each pair is (b_2j, b_2j+1), the two steps' 0/1 bits; else
    it is (0, f_j), f_j = b_2j + b_2j+1 its up-count, all a Chung-Feller pass
    reads.  Steps 0 and m+1 are virtual zero bits.  The vectors have the
    kernel's unsigned type (`_widths(m)`) and are made one word column at a
    time (see the module docstring); the yielded buffers are reused, so each
    pair is valid until the next one.
    """
    w = _words_per_walk(m)
    unsigned = _widths(m)[1]
    width = np.iinfo(unsigned).bits
    little = np.dtype(unsigned).newbyteorder("<")
    size = stop - start
    # word t of walk j is mix(seed + (t + 1) * golden + j * (w * golden)); a slice
    # adds its first walk's share to the column's constant and i * (w * golden)
    # to its walk i
    stride = w * _GOLDEN & _MASK64
    lanes = np.arange(min(_SLICE, size), dtype=np.uint64)
    lanes *= np.uint64(stride)
    words = np.empty_like(lanes)  # W'_t of a slice: step 64t + i at bit i
    spare = np.empty_like(lanes)
    carry = np.zeros(size, np.uint8)  # W_{t-1} >> 63: step 64t
    rows = np.empty((64 // width, size), unsigned)
    x = np.empty(size, unsigned) if split else None
    y = np.empty(size, unsigned)
    for t in range(m // 64 + 1):  # W'_t holds pairs 32t..32t+31
        column = (seed + (t + 1) * _GOLDEN) & _MASK64
        for a in range(0, size, _SLICE):
            b = min(a + _SLICE, size)
            word, more = words[:b - a], spare[:b - a]
            if t < w:
                np.add(lanes[:b - a], np.uint64((column + (start + a) * stride) & _MASK64),
                       out=word)
                _mix_block(word, more)
                np.right_shift(word, 63, out=more)
                word <<= np.uint64(1)
                word |= carry[a:b]
                np.copyto(carry[a:b], more)
            else:  # m = 64t: W'_t is step m alone, the carry of the last word
                np.copyto(word, carry[a:b])
            if m - 64 * t < 63:  # steps past m are zero
                word &= np.uint64((2 << (m - 64 * t)) - 1)
            if not split:  # 2-bit fields f_j = b_2j + b_2j+1
                np.right_shift(word, 1, out=more)
                more &= np.uint64(_EVEN_BITS)
                word &= np.uint64(_EVEN_BITS)
                word += more
            np.copyto(rows[:, a:b],
                      word.astype("<u8", copy=False).view(little).reshape(-1, 64 // width).T)
        for bit in range(0, min(64, m - 64 * t + 1), 2):
            row, shift = rows[bit // width], bit % width
            if split:
                yield _field(row, shift, 1, x), _field(row, shift + 1, 1, y)
            else:
                yield 0, _field(row, shift, 2, y)


def _field(row: np.ndarray, shift: int, bits: int, out: np.ndarray) -> np.ndarray:
    """Bits shift..shift+bits-1 of each entry of `row`, into `out`; no call is made for a no-op."""
    if shift:
        row = np.right_shift(row, shift, out=out)
    if shift + bits < 8 * row.itemsize:
        row = np.bitwise_and(row, (1 << bits) - 1, out=out)
    return row


def simulate(cfg: SimConfig) -> tuple[int, ...]:
    """Empirical histogram of the positive-step count over `cfg.samples` walks.

    Deterministic in `cfg` alone: walks are counted `_BLOCK` at a time, and
    absolute word addressing keeps the result independent of the block size.
    """
    m = cfg.m
    size = m + 2 if cfg.rule is PositivityRule.NON_NEGATIVE else m + 1
    try:
        hist = np.zeros(size, dtype=np.int64)
    except MemoryError:
        raise DomainError(f"walk length {m} is too long for a histogram in memory") from None
    seed = cfg.seed & _MASK64
    for start in range(0, cfg.samples, _BLOCK):
        stop = min(start + _BLOCK, cfg.samples)
        pairs = _block_pairs(seed, m, start, stop, cfg.rule is PositivityRule.NON_NEGATIVE)
        # one expression, so that no name keeps this block's u and counts alive
        # while the next block is built
        hist += np.bincount(_count_walks(pairs, m, stop - start, (cfg.rule,))[0][0], minlength=size)
    return tuple(int(c) for c in hist)


def tv_distance(hist: Sequence[int], exact: Distribution) -> float:
    """Total-variation distance between an empirical histogram and an exact law.

    Floating point on purpose: this is a reporting number, not a proof.
    """
    if len(hist) != exact.length + 1:
        raise DomainError(
            f"support mismatch: histogram has {len(hist)} slots, law has {exact.length + 1}"
        )
    samples = sum(hist)
    if not samples:
        raise DomainError("histogram holds no samples")
    counts, den = _counts(exact)
    # int / int is correctly rounded, so each term is float(Fraction(c, den))
    return 0.5 * sum(abs(h / samples - c / den) for h, c in zip(hist, counts))


def arcsine_cdf(u: float) -> float:
    """Limit law of the fraction of time spent positive: (2/pi) arcsin(sqrt(u))."""
    if u <= 0:
        return 0.0
    if u >= 1:
        return 1.0
    return 2.0 / math.pi * math.asin(math.sqrt(u))


def arcsine_sup_distance(hist: Sequence[int]) -> float:
    """Sup-norm distance between the empirical CDF of count/m and the arcsine CDF.

    The histogram is read over counts 0..m; the supremum over all of [0, 1]
    is attained at the atoms, checking both sides of each jump.
    """
    m = len(hist) - 1
    samples = sum(hist)
    if m < 1 or not samples:
        raise DomainError(f"arcsine distance needs 2 slots and 1 sample, got {m + 1}, {samples}")
    worst = 0.0
    ecdf_prev = 0.0
    acc = 0
    for j, h in enumerate(hist):
        acc += h
        ecdf = acc / samples
        f = arcsine_cdf(j / m)
        worst = max(worst, abs(ecdf - f), abs(ecdf_prev - f))
        ecdf_prev = ecdf
    return worst
