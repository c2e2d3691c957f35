"""Closed-form laws for the number of positive steps of a fair coin-toss walk.

Under the tie rule (a zero partial sum counts as positive exactly when the
previous sum was positive) the count N_m of positive steps among the first m
has fully explicit laws:

    even length 2n:   P(N = 2r)    = u_r u_{n-r}
                      (odd values impossible)
    odd length 2n+1:  P(N = 2r)    = u_r u_{n+1-r} (n-r+1)/(n+1)
                      P(N = 2r-1)  = u_r u_{n+1-r} r/(n+1)

where u_k = c_k / 4^k, c_k = C(2k, k), is the probability that the walk is
back at the origin after 2k steps.  With K = ceil(m/2), both come from the
weights w_r = c_r c_{K-r}, r = 0..K: the law of 2n+1 tosses is the law of
2n+2 tosses with each atom at 2r split r : (n+1-r) between 2r-1 and 2r.
Both laws are mirror-symmetric, P(N_m = j) = P(N_m = m - j), because
w_r = w_{K-r}.  The formula lives in one stream, `_law_counts`: it yields
the unreduced counts of slots 0..m in index order over one denominator,
4^K or 4^K K, forming each weight by its ratio recurrence (`_weights`) when
its first slot is read, and checks them as `Distribution` checks a law.
`coinwalk dist` writes that stream straight to its table, so no law is held
and its memory does not grow with m.  `law` is the one builder of a held
law: it reads the stream to slot m//2, so it forms w_0..w_{K//2}, half the
weights, writes those counts straight into the numerator list of the law's
PGF, and fills each slot j > m/2 with the same int object as slot m - j.
Each count is computed once and exists once, from that list to the writer
that prints it.

A :class:`Distribution` is stored as its PGF, one ``QPoly`` (integer
numerators over one denominator), so ``pgf`` is free.  ``mass`` and ``cdf``
read one integer view of it, ``_counts``: numerators padded to 0..m, and
prefix-summed for the CDF as they are read.  Fractions appear only where
``mass``, ``cdf`` and ``[j]`` hand them out.
Distributions keep the full index range 0..m with explicit zeros at
impossible parities, so cross-route comparisons are positional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Iterator, Sequence

from .errors import DomainError
from .qpoly import QPoly


@dataclass(frozen=True)
class Distribution:
    """Exact PMF of a count statistic over support 0..length.

    Held as its PGF `_pgf`; `length` keeps the trailing slots whose mass is
    zero.  Build one from integer counts with `from_counts`, or, as `law`
    does, from a PGF whose numerators are already the counts; every
    construction checks the law on its integer numerators.
    """

    length: int
    _pgf: QPoly

    def __post_init__(self):
        nums, den = self._pgf.numerators
        if any(c < 0 for c in nums):
            raise DomainError("negative probability mass")
        if sum(nums) != den:
            raise DomainError(f"masses sum to {Fraction(sum(nums), den)}, not 1")
        if self._pgf.degree > self.length:
            raise DomainError(f"PGF degree {self._pgf.degree} exceeds length {self.length}")

    @classmethod
    def from_counts(cls, counts: Sequence[int], den: int) -> "Distribution":
        """The law P(N = j) = counts[j] / den, j = 0..len(counts)-1, built on integers."""
        if den <= 0:
            raise DomainError(f"denominator {den} is not positive")
        return cls(len(counts) - 1, QPoly._make(list(counts), den))

    @property
    def mass(self) -> tuple[Fraction, ...]:
        nums, den = _counts(self)
        return tuple(Fraction(c, den) for c in nums)

    def __getitem__(self, j: int) -> Fraction:
        if not -self.length - 1 <= j <= self.length:
            raise IndexError(f"index {j} outside 0..{self.length}")
        return self._pgf.coeff(j % (self.length + 1))


def law(m: int) -> Distribution:
    """Law of the positive-step count over m tosses, of either parity.

    Built from the first m//2 + 1 counts of `_law_counts(m)`, so only
    w_0..w_{K//2} are formed: the law is mirror-symmetric, P(N = j) =
    P(N = m - j), because w_r = w_{K-r}.  Those counts are reduced by their
    gcd with the denominator, and every slot j > m/2 holds the same int
    object as slot m - j.  Each count is computed and held once, in the
    list the law's PGF then owns.
    """
    counts = [0] * (m + 1)  # refuses a size past memory or index range before any weight
    nums, den = _law_counts(m)
    half = m // 2 + 1  # slots 0..m//2; slot m - j mirrors slot j
    for j, c in enumerate(islice(nums, half)):
        counts[j] = c
    g = math.gcd(den, *counts[:half])
    if g != 1:
        for j in range(half):
            counts[j] //= g
    for j in range(half, m + 1):
        counts[j] = counts[m - j]
    # already canonical, so _make keeps the shared objects
    return Distribution(m, QPoly._make(counts, den // g))


def _law_counts(m: int, cumulative: bool = False) -> tuple[Iterator[int], int]:
    """(nums, den) for N_m: the j-th num / den is P(N_m = j), or P(N_m <= j) if cumulative.

    The one home of the law's formula.  With K = ceil(m/2), nums yields the
    unreduced counts of slots 0..m in index order, from the running weight
    w_r = c_r c_{K-r} (`_weights`): w_r at 2r over 4^K when m is even; w_r r
    at 2r-1 and w_r (K-r) at 2r over 4^K K when m is odd.  Each weight is
    formed when its first slot is read, so a reader that stops early forms
    no more.  The stream checks what `Distribution` checks: a negative count
    raises as it is read, and counts that do not sum to den raise after the
    last one.
    """
    if m < 0:
        raise DomainError(f"walk length must be non-negative, got {m}")
    k = (m + 1) // 2
    den = 4**k * k if m % 2 else 4**k
    nums = _slots(m, k, den)
    return (accumulate(nums) if cumulative else nums), den


def _slots(m: int, k: int, den: int) -> Iterator[int]:
    """The counts of `_law_counts`, checked as they are formed; only the current weight is held.

    Every count is a weight times 1, r or K - r, none negative, and the
    counts sum to the weights' sum, times K when m is odd: so a negative
    weight is a negative count, and the weights' running sum checks the total.
    """
    total = 0
    for r, w in enumerate(_weights(k)):
        if w < 0:
            raise DomainError("negative probability mass")
        total += w
        if m % 2 == 0:
            yield w
            if r < k:
                yield 0
        else:
            if r:
                yield w * r
            if r < k:
                yield w * (k - r)
    if m % 2:
        total *= k
    if total != den:
        raise DomainError(f"masses sum to {Fraction(total, den)}, not 1")


def _weights(k: int) -> Iterator[int]:
    """w_r = c_r c_{k-r}, r = 0..k, one at a time; only the current one is held.

    w_0 = C(2k, k), and w_{r+1} / w_r = (c_{r+1} / c_r) (c_{k-r-1} / c_{k-r})
    = (2r+1)(k-r) / ((r+1)(2k-2r-1)), so each step is exact integer division.
    """
    w = math.comb(2 * k, k)
    for r in range(k):
        yield w
        w = w * (2 * r + 1) * (k - r) // ((r + 1) * (2 * k - 2 * r - 1))
    yield w


def pgf(dist: Distribution) -> QPoly:
    """Probability generating function sum_j P(N=j) q^j; equals 1 at q=1."""
    return dist._pgf


def cdf(dist: Distribution) -> tuple[Fraction, ...]:
    """Partial sums of the mass; the last entry is exactly 1."""
    nums, den = _counts(dist, cumulative=True)
    return tuple(Fraction(s, den) for s in nums)


def _counts(dist: Distribution, cumulative: bool = False) -> tuple[Iterator[int], int]:
    """(nums, den) over 0..length: P(N = j), or P(N <= j) if cumulative, is the j-th num / den.

    The law's integer view, for callers that format or sum without Fractions.
    nums is an iterator read once: the prefix sums are formed as it is read,
    so no second list of the law's size is ever held.
    """
    nums, den = dist._pgf.numerators
    padded = chain(nums, repeat(0, dist.length + 1 - len(nums)))
    return (accumulate(padded) if cumulative else padded), den


def conditional_positive(n: int, r: int) -> Fraction:
    """P(step-(2n-1) sum is positive | positive count over 2n tosses = 2r) = r/n.

    Formula value only; the enumeration module proves it independently.
    """
    if n < 1 or not 0 <= r <= n:
        raise DomainError(f"need n >= 1 and 0 <= r <= n, got n={n}, r={r}")
    return Fraction(r, n)
