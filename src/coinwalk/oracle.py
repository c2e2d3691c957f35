"""Ground truth by exhaustive enumeration of every sign sequence.

Deliberately dumb: every one of the 2^n paths is evaluated on its own, with
no combinatorial shortcuts, so this module stays a trustworthy oracle for the
closed forms.  Paths are uint32 ids 0..2^n-1 (so n <= 32), bit k giving the
sign of step k+1 (set bit = +1).  The heavy loop runs in numpy over blocks of
paths, which changes speed only; its kernel `_count_walks` also counts the
Monte Carlo walks, and `count_positive` is the plain per-path reference the
tests pin both routes' histograms to.

Two counting rules:

* CHUNG_FELLER - count k in 1..n with S_k > 0, or S_k = 0 and S_{k-1} > 0.
  For +-1 steps this is S_k >= b_k, b_k the 0/1 bit of step k; `_count_walks`
  applies that per path and step, `count_positive` the rule as written.
* NON_NEGATIVE - count k in 0..n with S_k >= 0.  The k = 0 term always
  counts (S_0 = 0), so the count ranges over 1..n+1 and histogram slot 0
  stays empty.  This is a genuinely different statistic with a different
  law at finite n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .distributions import Distribution
from .errors import CapExceeded, DomainError

DEFAULT_CAP = 24
_MAX_N = 32  # the widest walk a uint32 path id encodes

_BLOCK = 1 << 16


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
        raise ValueError("n must be non-negative")
    if n > _MAX_N:
        raise DomainError(f"n={n} exceeds {_MAX_N}, the widest walk a uint32 path id encodes")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds enumeration cap {cap} (2^{n} paths)")
    return _enumerate(n, rule)


def _count_walks(bits: np.ndarray, rule: PositivityRule) -> tuple[np.ndarray, np.ndarray]:
    """Counts and partial sums of walks given as uint8 0/1 step bits, one row each.

    Set bit = +1.  The sums are int16 below 2^15 steps and int32 above: the
    narrowest type that cannot overflow.
    """
    dtype = np.int16 if bits.shape[1] < 1 << 15 else np.int32
    sums = (bits.view(np.int8) * 2 - 1).cumsum(axis=1, dtype=dtype)
    if rule is PositivityRule.NON_NEGATIVE:
        counts = (sums >= 0).sum(axis=1) + 1
    else:
        # the tie rule as S_k >= b_k: S_k = 0 follows S_{k-1} > 0 iff step k is down
        counts = (sums >= bits).sum(axis=1)
    return counts, sums


@lru_cache(maxsize=None)
def _enumerate(n: int, rule: PositivityRule) -> WalkStats:
    hist = np.zeros(n + 2, dtype=np.int64)
    joint = np.zeros(n + 2, dtype=np.int64)
    for start in range(0, 1 << n, _BLOCK):
        stop = min(start + _BLOCK, 1 << n)
        ids = np.arange(start, stop, dtype="<u4").view(np.uint8).reshape(stop - start, 4)
        bits = np.unpackbits(ids, axis=1, count=n, bitorder="little")
        counts, sums = _count_walks(bits, rule)
        hist += np.bincount(counts, minlength=n + 2)
        if n >= 2:
            joint += np.bincount(counts[sums[:, n - 2] > 0], minlength=n + 2)
    return WalkStats(n=n, rule=rule, count_hist=tuple(int(c) for c in hist),
                     joint_pos=tuple(int(c) for c in joint))


def oracle_distribution(n: int, rule: PositivityRule, cap: int = DEFAULT_CAP) -> Distribution:
    """Enumeration histogram normalized by 2^n, as exact rationals.

    CHUNG_FELLER counts live on 0..n, NON_NEGATIVE on 0..n+1 (slot 0 empty).
    """
    stats = enumerate_walks(n, rule, cap=cap)
    total = 1 << n
    if rule is PositivityRule.CHUNG_FELLER:
        assert stats.count_hist[n + 1] == 0
        return Distribution.from_mass(Fraction(c, total) for c in stats.count_hist[: n + 1])
    return Distribution.from_mass(Fraction(c, total) for c in stats.count_hist)


def oracle_conditional(n: int, cap: int = DEFAULT_CAP) -> tuple[Fraction, ...]:
    """P(sum after 2n-1 steps > 0 | count over 2n steps = 2r), r = 0..n, by enumeration."""
    if n < 1:
        raise ValueError("n must be positive")
    stats = enumerate_walks(2 * n, PositivityRule.CHUNG_FELLER, cap=cap)
    return tuple(
        Fraction(stats.joint_pos[2 * r], stats.count_hist[2 * r]) for r in range(n + 1)
    )
