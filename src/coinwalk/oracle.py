"""Ground truth by exhaustive enumeration of every sign sequence.

Deliberately dumb: every one of the 2^n paths is evaluated on its own, with
no combinatorial shortcuts, so this module stays a trustworthy oracle for the
closed forms.  Paths are ids 0..2^n-1, bit k giving the sign of step k+1
(set bit = +1), and the cap is the only limit on n.  One step-major kernel,
`_WalkState`, counts a tuple of rules in a single pass: per walk of a block it
keeps u, the up-steps so far, and the tallies the rules are read from, on the
narrowest type that cannot overflow.  Its unit is the pair of steps
(2j, 2j+1), j = 0..n // 2, with steps 0 and n+1 virtual zero bits; `advance`
updates the state at every pair and `read` reads the counts out.
`_count_walks`, a fresh state advanced over every pair and read, also counts
the Monte Carlo walks, a 1-D block at a time.  Enumeration runs every path of
each block of min(2^16, 2^n) paths through it, as a grid of rows of up to
4096 paths, path id = row * width + col: steps 1..12 are the bits of col,
read-only rows cached once per process, steps 13..16 the bits of row, cached
columns, and `up += x` broadcasts either over the grid; each higher step is
one int for the block.  The pairs these cached steps fill alone, (0, b_1),
(b_2, b_3), ..., are the same in every block, so one loop serves every n: the
kernel advances them once per n, and each block restores that state into its
own buffers (up to 16 steps, the one block's state is that state itself) and
advances it by the block's other pairs, from (b_16, b_17) on: each path is
still counted in its own slot, step by step, from its own bits.  The joint
key (cf * (n+2) + nn) * 2 + [S_{n-1} > 0] is formed and tallied by one
bincount per `_SLICE` (2^14) paths of a block, a group of its rows, so
neither the key nor bincount's intp copy of it spans the block: a block peaks
at about 0.63 MiB traced by tracemalloc, where one bincount per block took
1.09 MiB.  The tally is summed down to each rule's WalkStats at the end.
`count_positive` is the plain per-path reference both routes are tested with.

Two counting rules, with u_k the up-steps among the first k, so S_k = 2u_k - k:

* CHUNG_FELLER - count k in 1..n with S_k > 0, or S_k = 0 and S_{k-1} > 0.
  S is odd at odd k, so steps 2j-1 and 2j count together, both iff
  S_{2j-1} > 0, i.e. u_{2j-1} >= j; only an odd n leaves its last step
  unpaired.  The kernel tallies the odd steps that count, once per pair,
  and doubles the tally, `count_positive` applies the rule as written.
* NON_NEGATIVE - count k in 0..n with S_k >= 0, i.e. 2u_k >= k, the same
  compare as above at odd k.  The k = 0 term always counts (S_0 = 0), so
  the count ranges over 1..n+1 and histogram slot 0 stays empty; the
  kernel counts it as pair 0's even step.  This is a genuinely different
  statistic with a different law at finite n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .distributions import Distribution
from .errors import CapExceeded, DomainError

DEFAULT_CAP = 24

_BLOCK = 1 << 16  # walks per block: each 8-bit vector is 64 KB, cache-resident
_ROW = 1 << 12  # the most walks per row of an enumeration block's grid
# walks per slice of a block: an enumeration block's joint key is formed and
# tallied, and a Monte Carlo block's word column made, this many at a time.
# A slice's buffers stay cache-resident (128 KB for a uint64 one), which
# measured no slower than one pass over the whole block
_SLICE = 1 << 14


class PositivityRule(enum.Enum):
    CHUNG_FELLER = "chung-feller"
    NON_NEGATIVE = "non-negative"


@dataclass(frozen=True)
class WalkStats:
    """Exact aggregate over all 2^n sign sequences of length n.

    count_hist[j] counts paths whose positive-step count is j (length n+2 to
    fit the NON_NEGATIVE range 0..n+1).  joint_pos[j] counts paths with count
    j whose sum after n-1 steps is > 0 (all zeros for n < 2, where that sum
    is 0 or undefined).
    """

    n: int
    rule: PositivityRule
    count_hist: tuple[int, ...]
    joint_pos: tuple[int, ...]


def count_positive(steps: Sequence[int], rule: PositivityRule) -> int:
    """Reference per-path count; `steps` is a sequence of +-1."""
    s = 0
    count = 0
    if rule is PositivityRule.NON_NEGATIVE:
        count = 1  # k = 0: S_0 = 0 counts
        for st in steps:
            s += st
            if s >= 0:
                count += 1
    else:
        prev = 0
        for st in steps:
            prev, s = s, s + st
            if s > 0 or (s == 0 and prev > 0):
                count += 1
    return count


def enumerate_walks(n: int, rule: PositivityRule, cap: int = DEFAULT_CAP) -> WalkStats:
    """Exact histogram over all 2^n equally likely sign sequences."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds enumeration cap {cap} (2^{n} paths)")
    if 2 * (n + 2) ** 2 * 8 > np.iinfo(np.intp).max:  # _enumerate_rules' int64 joint tally
        raise DomainError(f"n={n} is too long for a joint histogram in memory")
    return _enumerate(n, rule)


def _widths(n: int) -> tuple[type[np.signedinteger], type[np.unsignedinteger]]:
    """The signed and unsigned integer types `_count_walks` counts n-step walks on.

    The narrowest pair whose signed type holds n + 1: counts (at most n + 1)
    and sums (|S_n| <= n) are signed, and u (at most n) and 2u are unsigned.
    Step bits made in the unsigned type keep every per-step add a same-type
    numpy loop, about twice as fast as a mixed-type one.
    """
    return next(pair for pair in ((np.int8, np.uint8), (np.int16, np.uint16),
                                  (np.int32, np.uint32), (np.int64, np.uint64))
                if n < np.iinfo(pair[0]).max)


_FLUSH = 127  # the most flags an int8 tally holds, one per pair

_Bits = np.ndarray | int  # one step's 0/1 bits: a vector over the walks, or one int for all
_Pair = tuple[_Bits, _Bits]


def _pairs(steps: Sequence[_Bits]) -> list[_Pair]:
    """The kernel's items for steps 1..n: (b_2j, b_2j+1), j = 0..n // 2, b_0 = b_{n+1} = 0."""
    bits = [0, *steps, 0]
    return list(zip(bits[0::2], bits[1::2]))


class _WalkState:
    """Where an array of `shape` walks of n steps stands after their first `pairs` pairs of steps.

    The kernel's unit is the pair of steps (2j, 2j+1), j = 0..n // 2, where
    steps 0 and n+1 are virtual zero bits.  Per walk, `up` holds u, the
    up-steps so far, in the unsigned type of `_widths(n)`.  `odd` counts, in
    the signed type, the odd steps k = 2j+1 <= n with u_k >= j+1, and `even`,
    kept only for NON_NEGATIVE, the even steps k = 2j with u_k >= j (k = 0
    among them).  `advance` runs further pairs in place; once all n // 2 + 1
    are in, `read` reads the counts and sums out into these buffers, after
    which the state is spent.
    """

    def __init__(self, n: int, shape: int | tuple[int, ...], rules: Sequence[PositivityRule]):
        signed, unsigned = _widths(n)
        self.n = n
        self.pairs = 0
        self.up = np.zeros(shape, unsigned)
        self.odd = np.zeros(shape, signed)
        self.even = np.zeros(shape, signed) if PositivityRule.NON_NEGATIVE in rules else None

    def restore(self, saved: _WalkState) -> _WalkState:
        """Copy `saved`, a state of the same walks' length and rules, into these buffers."""
        self.pairs = saved.pairs
        for mine, theirs in ((self.up, saved.up), (self.odd, saved.odd), (self.even, saved.even)):
            if mine is not None:
                np.copyto(mine, theirs)
        return self

    def advance(self, pairs: Iterable[_Pair]) -> _WalkState:
        """Run pairs `self.pairs` onwards in place.

        `pairs` yields (x, y), the 0/1 bits of steps 2j and 2j+1 (set bit =
        +1), each an array that broadcasts over the walks' shape, best in the
        unsigned type of `_widths(n)`, or one int shared by all of them.
        Chung-Feller counts steps 2j+1 and 2j+2 together, both iff u_{2j+1}
        >= j+1, and non-negative counts step k iff 2u_k >= k, which at odd k
        is the same compare.  So one pass serves every rule: a pair is `up += x`, for
        NON_NEGATIVE the even compare u >= j, `up += y` and, when 2j+1 <= n,
        the odd compare u >= j+1.  A pass without NON_NEGATIVE never reads u
        at even k, so its source may feed (0, x + y).  The flags add up in
        int8 tallies (the counts themselves when they are int8, else tallies
        added into the wider counts every `_FLUSH` pairs and at the end of
        the pass).
        """
        up, odd, even, shape, n = self.up, self.odd, self.even, self.up.shape, self.n
        wide = odd.dtype.type is not np.int8  # then the flags add up in int8 tallies of their own
        if wide:
            odd, even = np.zeros(shape, np.int8), None if even is None else np.zeros(shape, np.int8)
        flag = np.empty(shape, dtype=bool)
        flag_int = flag.view(np.int8)  # int8 += int8, the fastest numpy add
        j = self.pairs - 1
        for j, (x, y) in enumerate(pairs, self.pairs):
            if type(x) is not int or x:
                up += x
            if even is not None:
                np.greater_equal(up, j, out=flag)
                even += flag_int
            if type(y) is not int or y:
                up += y
            if 2 * j < n:
                np.greater_equal(up, j + 1, out=flag)
                odd += flag_int
            if wide and (j + 1) % _FLUSH == 0:
                self._flush(odd, even)
        if wide:
            self._flush(odd, even)
        self.pairs = j + 1
        return self

    def _flush(self, odd: np.ndarray, even: np.ndarray | None) -> None:
        """Add the int8 tallies into the wider counts, and empty them."""
        self.odd += odd
        odd.fill(0)
        if even is not None:
            self.even += even
            even.fill(0)

    def read(self, rules: Sequence[PositivityRule]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Counts under each of `rules`, and sums S_n, of the walks after all their pairs."""
        n = self.n
        assert self.pairs == n // 2 + 1, "read before the last pair"
        if self.even is not None:  # NN = odd + even, read out into the even tally's buffer
            self.even += self.odd
        if PositivityRule.CHUNG_FELLER in rules:  # CF = 2 odd - [n odd][u_n >= (n+1)/2]
            self.odd += self.odd
            if n & 1:
                self.odd -= np.greater_equal(self.up, (n + 1) >> 1).view(np.int8)
        self.up += self.up
        self.up -= n  # S_n = 2u_n - n, read back as signed
        counts = {PositivityRule.CHUNG_FELLER: self.odd, PositivityRule.NON_NEGATIVE: self.even}
        return tuple(counts[rule] for rule in rules), self.up.view(self.odd.dtype)


def _count_walks(pairs: Iterable[_Pair], n: int, shape: int | tuple[int, ...],
                 rules: Sequence[PositivityRule]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Counts under each of `rules`, and final sums, of walks of n steps of `shape`, in one pass."""
    return _WalkState(n, shape, rules).advance(pairs).read(rules)


def _enumerate(n: int, rule: PositivityRule) -> WalkStats:
    """One rule's WalkStats, from the cached pass that counts every rule."""
    return _enumerate_rules(n)[rule]


@lru_cache(maxsize=1)
def _bit_table() -> tuple[np.ndarray, ...]:
    """Steps 1..16 of a block's grid of _BLOCK // _ROW rows by _ROW columns, read-only uint8.

    Path id = row * _ROW + col.  Item k - 1 is step k's bits, bit k - 1 of
    the ids: for k <= 12 bit k - 1 of col, a row of shape (_ROW,), and for
    k > 12 bit k - 13 of row, a column of shape (_BLOCK // _ROW, 1).  Either
    broadcasts over the grid, so no step's bits fill a block: about 48 KB.
    """
    along = _ROW.bit_length() - 1  # steps that vary along a row
    cols, rows = np.arange(_ROW), np.arange(_BLOCK // _ROW)[:, None]
    table = tuple(((cols >> k if k < along else rows >> (k - along)) & 1).astype(np.uint8)
                  for k in range(_BLOCK.bit_length() - 1))
    for bits in table:
        bits.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _enumerate_rules(n: int) -> dict[PositivityRule, WalkStats]:
    """WalkStats of both rules from one kernel pass per block and one bincount per slice.

    A block is a C-contiguous grid of walks, min(_ROW, block) to a row, and
    path id = row * width + col within it.  Its state and flags are grids,
    and its joint key is formed a slice of rows at a time, `_SLICE` walks or
    the whole grid if that is smaller; the step bits are `_bit_table`'s rows
    and columns, cut to the grid, so every one of them is at most _ROW bytes.
    """
    rules = (PositivityRule.CHUNG_FELLER, PositivityRule.NON_NEGATIVE)
    width = n + 2
    unsigned = _widths(n)[1]
    tally = np.zeros((width, width, 2), dtype=np.int64)  # by key (cf * width + nn) * 2 + pos
    block = min(_BLOCK, 1 << n)
    low = block.bit_length() - 1  # steps 1..low vary inside a block
    grid = (block // min(_ROW, block), min(_ROW, block))
    # item k - 1 is step k's bits, cut to the grid along the one axis they vary on
    table = [bits[:grid[-bits.ndim]] for bits in _bit_table()[:low]]
    rows = min(grid[0], _SLICE // grid[1])  # a slice: the rows of _SLICE walks, or the grid
    key = np.empty((rows, grid[1]), dtype=np.int16 if tally.size <= 1 << 15 else np.intp)
    positive = np.zeros(grid, dtype=bool)  # pos = [S_{n-1} > 0], never for n < 2
    # the pairs the table's steps fill alone are the same in every block:
    # count them once (all of them up to 16 steps, else (0, b_1)..(b_14, b_15));
    # from (b_16, b_17) on, each block's walks resume from their own slots
    whole = n // 2 + 1 if n == low else low // 2
    prefix = _WalkState(n, grid, rules).advance(_pairs(table)[:whole])
    state = prefix if n == low else _WalkState(n, grid, rules)
    for start in range(0, 1 << n, block):
        high = [(start >> k) & 1 for k in range(low, n)]
        (cf, nn), sums = state.restore(prefix).advance(_pairs(table + high)[whole:]).read(rules)
        if n >= 2:  # S_{n-1} = S_n - 2b_n + 1 > 0 iff S_n >= 2b_n
            np.greater_equal(sums, 2 * (high or table)[-1], out=positive)
        nn = nn.view(unsigned)  # 2 nn + pos <= 2n + 3 fits the counts' unsigned type
        nn += nn
        nn += positive.view(np.uint8)
        for r in range(0, grid[0], rows):  # so neither key nor bincount's intp copy spans it
            np.multiply(cf[r:r + rows], 2 * width, out=key, dtype=key.dtype)  # int8 would wrap
            key += nn[r:r + rows]
            tally += np.bincount(key.ravel(), minlength=tally.size).reshape(tally.shape)
    return {rule: WalkStats(n=n, rule=rule, count_hist=tuple(int(c) for c in joint.sum(axis=1)),
                            joint_pos=tuple(int(c) for c in joint[:, 1]))
            for rule, joint in zip(rules, (tally.sum(axis=1), tally.sum(axis=0)))}


def oracle_distribution(n: int, rule: PositivityRule, cap: int = DEFAULT_CAP) -> Distribution:
    """Enumeration histogram over 2^n, as an exact law.

    CHUNG_FELLER counts live on 0..n, NON_NEGATIVE on 0..n+1 (slot 0 empty).
    """
    hist = enumerate_walks(n, rule, cap=cap).count_hist
    if rule is PositivityRule.CHUNG_FELLER:
        assert hist[n + 1] == 0
        hist = hist[: n + 1]
    return Distribution.from_counts(hist, 1 << n)


def oracle_conditional(n: int, cap: int = DEFAULT_CAP) -> tuple[Fraction, ...]:
    """P(sum after 2n-1 steps > 0 | count over 2n steps = 2r), r = 0..n, by enumeration."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    stats = enumerate_walks(2 * n, PositivityRule.CHUNG_FELLER, cap=cap)
    return tuple(
        Fraction(stats.joint_pos[2 * r], stats.count_hist[2 * r]) for r in range(n + 1)
    )
