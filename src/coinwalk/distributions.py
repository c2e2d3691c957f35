"""Closed-form laws for the number of positive steps of a fair coin-toss walk.

Under the tie rule (a zero partial sum counts as positive exactly when the
previous sum was positive) the count N_m of positive steps among the first m
has fully explicit laws:

    even length 2n:   P(N = 2r)    = return_prob(r) * return_prob(n - r)
                      (odd values impossible)
    odd length 2n+1:  P(N = 2r)    = return_prob(r) * return_prob(n+1-r) * (n-r+1)/(n+1)
                      P(N = 2r-1)  = return_prob(r) * return_prob(n+1-r) * r/(n+1)

Everything here is a pure function of the inputs over exact rationals.
Distributions keep the full index range 0..m with explicit zeros at
impossible parities, so cross-route comparisons are positional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .qpoly import QPoly, return_prob


@dataclass(frozen=True)
class Distribution:
    """Exact PMF of a count statistic over support 0..length."""

    length: int
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        if self.length != len(self.mass) - 1:
            raise ValueError(f"length {self.length} inconsistent with {len(self.mass)} masses")
        if any(p < 0 for p in self.mass):
            raise ValueError("negative probability mass")
        if sum(self.mass) != 1:
            raise ValueError(f"masses sum to {sum(self.mass)}, not 1")

    @classmethod
    def from_mass(cls, mass) -> "Distribution":
        mass = tuple(Fraction(p) for p in mass)
        return cls(length=len(mass) - 1, mass=mass)

    def __getitem__(self, j: int) -> Fraction:
        return self.mass[j]


def even_distribution(n: int) -> Distribution:
    """Law of the positive-step count over 2n tosses."""
    if n < 0:
        raise DomainError("n must be non-negative")
    u = [return_prob(k) for k in range(n + 1)]
    mass = [Fraction(0)] * (2 * n + 1)
    mass[::2] = [u[r] * u[n - r] for r in range(n + 1)]
    return Distribution.from_mass(mass)


def odd_distribution(n: int) -> Distribution:
    """Law of the positive-step count over 2n+1 tosses."""
    if n < 0:
        raise DomainError("n must be non-negative")
    u = [return_prob(k) for k in range(n + 2)]
    w = [u[r] * u[n + 1 - r] / (n + 1) for r in range(n + 2)]
    mass = [Fraction(0)] * (2 * n + 2)
    mass[::2] = [w[r] * (n - r + 1) for r in range(n + 1)]
    mass[1::2] = [w[r] * r for r in range(1, n + 2)]
    return Distribution.from_mass(mass)


def law(m: int) -> Distribution:
    """Law of the positive-step count over m tosses, of either parity."""
    return even_distribution(m // 2) if m % 2 == 0 else odd_distribution((m - 1) // 2)


def pgf(dist: Distribution) -> QPoly:
    """Probability generating function sum_j P(N=j) q^j; equals 1 at q=1."""
    return QPoly(dist.mass)


def cdf(dist: Distribution):
    """Partial sums of the mass; the last entry is exactly 1."""
    out = []
    acc = Fraction(0)
    for p in dist.mass:
        acc += p
        out.append(acc)
    return tuple(out)


def conditional_positive(n: int, r: int) -> Fraction:
    """P(step-(2n-1) sum is positive | positive count over 2n tosses = 2r) = r/n.

    Formula value only; the enumeration module proves it independently.
    """
    if n < 1 or not 0 <= r <= n:
        raise DomainError(f"need n >= 1 and 0 <= r <= n, got n={n}, r={r}")
    return Fraction(r, n)
