"""Dynamic-programming route: the walk PGF solved on the space-time lattice.

Let p(n, x) be the generating function E(q^count) of the positive-step count
over n steps for a walk started at x.  One time step, with the tie rule baked
into the spatial branch:

    x > 0:  p(n, x) = q/2 * (p(n-1, x+1) + p(n-1, x-1))
    x = 0:  p(n, x) = q/2 * p(n-1, 1) + 1/2 * p(n-1, -1)
    x < 0:  p(n, x) = 1/2 * (p(n-1, x+1) + p(n-1, x-1))

Position alone is a sufficient state: the tie rule counts a return to zero as
positive exactly when it comes from above, and a transition into 0 from x=1
is priced by the x>0 branch (carries q) while one from x=-1 is priced by the
x<0 branch (no q).  History deeper than the current site never matters.

Outside |x| <= n the value is forced without recursion: started at x >= n the
walk can never produce a non-positive step in n moves, so p(n, x) = q^n;
started at x <= -n it can never produce a positive one, so p(n, x) = 1.
That closed boundary lets a slice at time n live on the finite window
-n..n.  p(n, 0) computed this way uses no generating-function machinery at
all, which is exactly why it is worth having: it cross-checks the closed
forms and the series expansions from an independent direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .qpoly import QPoly

_HALF = Fraction(1, 2)
_HALF_Q = QPoly((0, _HALF))  # q/2


@dataclass(frozen=True)
class LatticeSlice:
    """Values p(n, x) for x in -n..n; index i holds x = i - n."""

    n: int
    values: tuple[QPoly, ...]

    def __post_init__(self):
        if len(self.values) != 2 * self.n + 1:
            raise ValueError("slice must cover -n..n")

    def value(self, x: int) -> QPoly:
        """p(n, x), using the forced closed form outside the window."""
        if x > self.n:
            return QPoly.monomial(self.n)
        if x < -self.n:
            return QPoly.one()
        return self.values[x + self.n]


def initial_slice() -> LatticeSlice:
    """Time 0: a count over zero steps is 0 wherever the walk starts."""
    return LatticeSlice(0, (QPoly.one(),))


def dp_step(prev: LatticeSlice) -> LatticeSlice:
    """Advance one time step, widening the window by one site on each side."""
    n = prev.n + 1
    out = []
    for x in range(-n, n + 1):
        up = prev.value(x + 1)
        down = prev.value(x - 1)
        if x > 0:
            out.append((up + down) * _HALF_Q)
        elif x == 0:
            out.append(up * _HALF_Q + down.scale(_HALF))
        else:
            out.append((up + down).scale(_HALF))
    return LatticeSlice(n, tuple(out))


def dp_pgf(n: int) -> QPoly:
    """p(n, 0): the PGF of the positive-step count over n steps, via DP alone."""
    return dp_pgf_table(n)[n]


def dp_pgf_table(n_max: int) -> list[QPoly]:
    """[p(0,0), p(1,0), ..., p(n_max,0)] from a single sweep."""
    if n_max < 0:
        raise DomainError(f"walk length must be non-negative, got {n_max}")
    cur = initial_slice()
    out = [cur.value(0)]
    for _ in range(n_max):
        cur = dp_step(cur)
        out.append(cur.value(0))
    return out
