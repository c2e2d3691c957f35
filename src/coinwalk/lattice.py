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

The x > 0 half need not be swept.  Under the tie rule a step counts exactly
when its segment lies above the axis, and no +-1 step has both ends at 0, so
negating a walk turns every counted step into an uncounted one and back: it
is a bijection from the n-step paths started at x to those started at -x
that maps a count c to n - c.  Hence

    p(n, x)(q) = q^n p(n, -x)(1/q),

and the x = 0 branch reads p(n-1, 1) off p(n-1, -1) by reversing its
coefficients.  Every other site obeys the one x < 0 rule.  Started at
x <= -n the walk never makes a positive step in n moves, so p(n, x) = 1
there, and a slice at time n lives on the finite window -n..0.  p(n, 0)
computed this way uses no generating-function machinery at all, which is
exactly why it is worth having: it cross-checks the closed forms and the
series expansions from an independent direction.

The sweep runs on integer path counts P(n, x) = 2^n p(n, x): the coefficient
of q^k counts the n-step paths from x with k positive steps.  The recursion
becomes P = P+ + P- for x < 0, with 2^n below the window, and at the origin
coefficient k of P(n, 0) is a_k + a_{n-k}, where a_j counts the (n-1)-step
paths from -1 with j positive steps (a_n = 0).  So it only adds and reverses.
Each P(n, x) is packed into one int with whole-byte slots; no coefficient
exceeds 2^n_max, so no carry crosses a slot.  These are still plain path
counts: no generating-function machinery enters.
"""

from __future__ import annotations

from .errors import DomainError
from .qpoly import QPoly


def dp_pgf(n: int) -> QPoly:
    """p(n, 0): the PGF of the positive-step count over n steps, via DP alone."""
    return dp_pgf_table(n)[n]


def dp_pgf_table(n_max: int) -> list[QPoly]:
    """[p(0,0), p(1,0), ..., p(n_max,0)] from a single sweep.

    The sweep keeps the sites x = -i, 0 <= i <= min(n, n_max - n), at time n:
    P(n, -i) feeds P(m, 0) only for m >= n + i, so no site past n_max - n is
    read, and the window is a diamond.  Each P(n, x) is packed into one int,
    q^k's coefficient in bytes [k b, (k+1) b) with b = n_max // 8 + 1.  A
    coefficient counts paths, so it is at most 2^n <= 2^n_max < 2^(8 b), and
    so is a sum P+ + P- of two slices at time n - 1: no carry crosses a slot,
    and a site update is one int add.  Once per n the origin is unpacked from
    P(n - 1, -1)'s bytes, reflected and packed back.
    """
    if n_max < 0:
        raise DomainError(f"walk length must be non-negative, got {n_max}")
    b = n_max // 8 + 1
    cur = [1]  # P(0, 0): the empty path, count 0
    out = [QPoly.one()]
    for n in range(1, n_max + 1):
        prev = cur + [1 << (n - 1)] * 2  # time n-1 at x = 0, -1, ...; 2^(n-1) below the window
        raw = prev[1].to_bytes(b * (n + 1), "little")  # a_0..a_n of P(n-1, -1)
        a = [int.from_bytes(raw[k * b:(k + 1) * b], "little") for k in range(n + 1)]
        counts = [x + y for x, y in zip(a, reversed(a))]  # P(n, 0) = P(n-1, -1) + q P(n-1, 1)
        cur = [int.from_bytes(b"".join(c.to_bytes(b, "little") for c in counts), "little"),
               *(down + up for down, up in zip(prev, prev[2:min(n, n_max - n) + 2]))]
        out.append(QPoly._make(counts, 1 << n))  # after the packing: it reduces counts in place
    return out
