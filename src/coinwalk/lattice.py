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

The sweep runs on integer path counts P(n, x) = 2^n p(n, x): the coefficient
of q^k counts the n-step paths from x with k positive steps.  The recursion
becomes P = q(P+ + P-) for x > 0, q P+ + P- at 0 and P+ + P- for x < 0, with
the boundary 2^n q^n above the window and 2^n below it, so it only adds and
multiplies by q.  Each P(n, x) is packed into one int with (n_max + 2)-bit
slots; no coefficient exceeds 2^n_max, so no carry crosses a slot.  These are
still plain path counts: no generating-function machinery enters.
"""

from __future__ import annotations

from .errors import DomainError
from .qpoly import QPoly


def dp_pgf(n: int) -> QPoly:
    """p(n, 0): the PGF of the positive-step count over n steps, via DP alone."""
    return dp_pgf_table(n)[n]


def dp_pgf_table(n_max: int) -> list[QPoly]:
    """[p(0,0), p(1,0), ..., p(n_max,0)] from a single sweep.

    Each count polynomial P(n, x) is packed into one int, q^k's coefficient
    in bits [k w, (k+1) w) with w = n_max + 2.  A coefficient counts paths,
    so it is at most 2^n <= 2^n_max, and so is a sum P+ + P- of two slices
    at time n - 1: no value reaches 2^w and no carry crosses a slot.
    Multiplying by q is then ``<< w`` and a site update is one int add.
    Only P(n, 0) is unpacked, once per n.
    """
    if n_max < 0:
        raise DomainError(f"walk length must be non-negative, got {n_max}")
    w = n_max + 2
    mask = (1 << w) - 1
    cur = [1]  # P(0, 0): the empty path, count 0
    out = [QPoly.one()]
    for n in range(1, n_max + 1):
        below, above = 1 << (n - 1), 1 << (n - 1 + w * (n - 1))  # 2^(n-1), 2^(n-1) q^(n-1)
        prev = [below, below, *cur, above, above]  # time n-1 at x = -n-1..n+1
        sums = [down + up for down, up in zip(prev, prev[2:])]  # x = -n..n
        cur = sums[:n] + [(prev[n + 2] << w) + prev[n]] + [s << w for s in sums[n + 1:]]
        counts = [(cur[n] >> (w * k)) & mask for k in range(n + 1)]
        out.append(QPoly._make(counts, 1 << n))
    return out
