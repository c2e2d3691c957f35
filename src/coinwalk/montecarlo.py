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

`simulate` counts with the enumeration module's step-major kernel, `_BLOCK`
(2^16) walks at a time, each block from fresh state in one pass.  The kernel
adds step k's bits into each walk's up-step count u_k, and compares u_k with
(k+1)/2 at odd k only, since Chung-Feller steps 2j-1 and 2j count together
(at even k too under the non-negative rule).  Word column t of a block
(word t of every walk) is made just before steps 64t+1..64t+64 and
transposed to 64 / w rows of the kernel's w-bit unsigned type
(`oracle._widths(m)`; four uint16 rows for m = 1000), so step k of every
walk is bit (k-1) % w of row ((k-1) % 64) // w, shifted and masked into one
reused buffer of that type.  Bits in the
kernel's own width, and its int8 flag tallies, keep every per-step numpy
call a same-type loop.  A block holds one word column and its counters, so
its memory does not grow with m.
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

from .distributions import Distribution
from .errors import DomainError
from .oracle import _BLOCK, PositivityRule, _count_walks, _widths

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Reference scalar implementation of word(seed, index)."""
    x = (seed + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def _mix_block(x: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of every word of x, in place: x is a fresh temporary."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


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


def _block_steps(seed: int, m: int, start: int, stop: int):
    """Yield the 0/1 bits of steps 1..m of walks start..stop-1, one vector per step.

    The vectors have the kernel's unsigned type (`_widths(m)`) and are made
    one word column at a time (see the module docstring); the yielded buffer
    is reused, so each vector is valid until the next one.
    """
    w = _words_per_walk(m)
    unsigned = _widths(m)[1]
    width = np.iinfo(unsigned).bits
    little = np.dtype(unsigned).newbyteorder("<")
    # word t of walk j is mix(seed + (t + 1) * golden + j * (w * golden))
    lanes = np.arange(start, stop, dtype=np.uint64) * np.uint64(w * _GOLDEN & _MASK64)
    bit = np.empty(stop - start, dtype=unsigned)
    for t in range(w):
        words = _mix_block(lanes + np.uint64((seed + (t + 1) * _GOLDEN) & _MASK64))
        rows = words.astype("<u8", copy=False).view(little).reshape(-1, 64 // width).T
        rows = rows.astype(unsigned, order="C")
        for k in range(64 * t, min(64 * t + 64, m)):
            np.right_shift(rows[(k & 63) // width], k % width, out=bit)
            yield np.bitwise_and(bit, 1, out=bit)


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
        (counts,), _ = _count_walks(_block_steps(seed, m, start, stop), m, stop - start,
                                    (cfg.rule,))
        hist += np.bincount(counts, minlength=size)
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
    return 0.5 * sum(abs(h / samples - float(p)) for h, p in zip(hist, exact.mass))


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
