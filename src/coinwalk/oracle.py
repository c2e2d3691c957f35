"""Ground truth by exhaustive enumeration of every sign sequence.

Deliberately dumb: every one of the 2^n paths is evaluated on its own, with
no combinatorial shortcuts, so this module stays a trustworthy oracle for the
closed forms.  Paths are ids 0..2^n-1, bit k giving the sign of step k+1
(set bit = +1), and the cap is the only limit on n.  One step-major kernel,
`_count_walks`, counts a tuple of rules in a single pass: per walk of a block
it keeps twice the up-steps so far and one count per rule, on the narrowest
type that cannot overflow, and updates them at every step; it also counts
the Monte Carlo walks.  Enumeration runs every path of each 2^16-path block
through it from fresh state, steps up to 16 from a bit table of the ids built
once per process, each higher step as one int for the block.  One bincount per
block tallies the joint key (cf * (n+2) + nn) * 2 + [S_{n-1} > 0], summed down
to each rule's WalkStats at the end.  `count_positive` is the plain per-path
reference both routes are tested with.

Two counting rules:

* CHUNG_FELLER - count k in 1..n with S_k > 0, or S_k = 0 and S_{k-1} > 0.
  For +-1 steps this is S_k >= b_k, b_k the 0/1 bit of step k, i.e.
  2u_{k-1} + b_k >= k with u_k the up-steps among the first k; `_count_walks`
  applies that per path and step, `count_positive` the rule as written.
* NON_NEGATIVE - count k in 0..n with S_k >= 0, i.e. 2u_k >= k.  The k = 0 term always
  counts (S_0 = 0), so the count ranges over 1..n+1 and histogram slot 0
  stays empty.  This is a genuinely different statistic with a different
  law at finite n.
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
    and sums (|S_n| <= n) are signed, and t = 2u (at most 2n) is unsigned.
    Step bits made in the unsigned type keep every per-step add a same-type
    numpy loop, about twice as fast as a mixed-type one.
    """
    return next(pair for pair in ((np.int8, np.uint8), (np.int16, np.uint16),
                                  (np.int32, np.uint32), (np.int64, np.uint64))
                if n < np.iinfo(pair[0]).max)


_FLUSH = 127  # the most flags an int8 tally holds


def _count_walks(steps: Iterable[np.ndarray | int], n: int, size: int,
                 rules: Sequence[PositivityRule]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Counts under each of `rules`, and final sums, of `size` walks of n steps.

    `steps` yields the 0/1 bits b_k of steps 1..n (set bit = +1), each a
    vector over the walks, best in the unsigned type of `_widths(n)`, or one
    int shared by all of them.  One pass serves every rule: it keeps t = 2u,
    twice the up-steps so far, so S_k = t - k, and step k counts under
    CHUNG_FELLER iff 2u_{k-1} + b_k >= k and under NON_NEGATIVE iff
    2u_k >= k.  A per-walk step is t += b, the first compare, t += b, the
    second; a shared step compares with k - b and adds 2b once.  Each
    compare's flags add up in an int8 tally: the counts themselves when they
    are int8, else a tally added into the wider counts every `_FLUSH` steps
    and at the end.
    """
    signed, unsigned = _widths(n)
    twice_up = np.zeros(size, unsigned)
    counts = {rule: np.full(size, rule is PositivityRule.NON_NEGATIVE, signed)  # S_0 = 0
              for rule in rules}
    tallies = counts if signed is np.int8 else {rule: np.zeros(size, np.int8) for rule in rules}
    chung_feller = tallies.get(PositivityRule.CHUNG_FELLER)
    non_negative = tallies.get(PositivityRule.NON_NEGATIVE)
    flag = np.empty(size, dtype=bool)
    flag_int = flag.view(np.int8)  # int8 += int8, the fastest numpy add
    for k, bit in enumerate(steps, 1):
        if type(bit) is int:  # shared by every walk: 2u_{k-1} + b >= k is t >= k - b
            if chung_feller is not None:
                np.greater_equal(twice_up, k - bit, out=flag)
                chung_feller += flag_int
            if bit:
                twice_up += 2
        else:
            twice_up += bit
            if chung_feller is not None:
                np.greater_equal(twice_up, k, out=flag)
                chung_feller += flag_int
            twice_up += bit
        if non_negative is not None:
            np.greater_equal(twice_up, k, out=flag)
            non_negative += flag_int
        if tallies is not counts and (k % _FLUSH == 0 or k == n):
            for rule in rules:
                counts[rule] += tallies[rule]
                tallies[rule].fill(0)
    twice_up -= n  # S_n = t - n, read back as signed
    return tuple(counts[rule] for rule in rules), twice_up.view(signed)


def _enumerate(n: int, rule: PositivityRule) -> WalkStats:
    """One rule's WalkStats, from the cached pass that counts every rule."""
    return _enumerate_rules(n)[rule]


@lru_cache(maxsize=1)
def _bit_table() -> np.ndarray:
    """Bits 0..15 of the ids 0.._BLOCK-1, one read-only uint8 row per step: row k is bit k."""
    ids = np.arange(_BLOCK, dtype=np.uint16)
    table = np.empty((16, _BLOCK), dtype=np.uint8)
    for k, row in enumerate(table):
        np.bitwise_and(ids >> k, 1, out=row, casting="unsafe")  # each bit fits a uint8
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _enumerate_rules(n: int) -> dict[PositivityRule, WalkStats]:
    """WalkStats of both rules from one kernel pass and one bincount per block."""
    rules = (PositivityRule.CHUNG_FELLER, PositivityRule.NON_NEGATIVE)
    width = n + 2
    tally = np.zeros((width, width, 2), dtype=np.int64)  # by key (cf * width + nn) * 2 + pos
    block = min(_BLOCK, 1 << n)
    low = block.bit_length() - 1  # steps 1..low vary inside a block
    table = _bit_table()[:low, :block]
    key = np.empty(block, dtype=np.int16 if tally.size <= 1 << 15 else np.intp)
    positive = np.zeros(block, dtype=bool)  # pos = [S_{n-1} > 0], never for n < 2
    for start in range(0, 1 << n, block):
        bits = [*table, *((start >> k) & 1 for k in range(low, n))]
        (cf, nn), sums = _count_walks(bits, n, block, rules)
        np.multiply(cf, width, out=key, dtype=key.dtype)  # on the int8 counts it would wrap
        key += nn
        key <<= 1
        if n >= 2:  # S_{n-1} = S_n - 2b_n + 1 > 0 iff S_n >= 2b_n
            np.greater_equal(sums, 2 * bits[-1], out=positive)
        key += positive
        tally += np.bincount(key, minlength=tally.size).reshape(tally.shape)
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
