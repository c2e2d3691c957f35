"""Legendre-polynomial identities for the walk PGFs.

The even-length PGF E_n = pgf(law(2n)) (the z^{2n} series coefficient) is a
scaled Legendre evaluation:

    E_n = sum_k u_k u_{n-k} q^{2k},   u_k = C(2k, k) / 4^k
        = q^n P_n((q + 1/q)/2)

and the odd-length PGF pgf(law(2n+1)) has five further expressions in E_n,
E_{n+1} and E_{n+2}, which must agree exactly.  Each is algebra on the even
laws it is handed, as `(n, e_n, e_n1, e_n2)`; this module builds no law.  An
InexactDivision anywhere in this module falsifies an identity (or its inputs)
and is allowed to propagate.  Legendre polynomials use the standard
normalization P_n(1) = 1 and are returned as plain QPoly values in the
argument variable, built from their explicit sum (see `legendre`).  The
recurrence `lagrange_series` meets the closed product law at polynomial (a, b)
(the two-route rows) and the explicit sum at rational (a, b) (the Lagrange rows).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError
from .qpoly import QPoly, Scalar, binomial

_Q_PLUS_1 = QPoly((1, 1))
_LEGENDRE_A = QPoly((Fraction(1, 2), 0, Fraction(1, 2)))  # (1 + q^2)/2
_LEGENDRE_B = QPoly((Fraction(1, 4), 0, Fraction(-1, 4)))  # (1 - q^2)/4


def legendre(n: int) -> QPoly:
    """P_n(x) = 2^-n sum_k (-1)^k C(n,k) C(2n-2k,n) x^(n-2k), k = 0..n/2."""
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    nums = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = binomial(n, k) * binomial(2 * n - 2 * k, n)
        nums[n - 2 * k] = -c if k % 2 else c
    return QPoly._make(nums, 2**n)


def legendre_pgf_table(n_max: int) -> list[QPoly]:
    """[q^n P_n((q + 1/q)/2) for n = 0..n_max]: `lagrange_series` at polynomial (a, b).

    By DLMF 18.12, sum_n q^n P_n(x) z^n = 1/sqrt(1 - 2xqz + q^2 z^2): a = xq, a^2 - 4b^2 = q^2.
    """
    if n_max < 0:
        raise DomainError(f"degree must be non-negative, got {n_max}")
    return list(lagrange_series(_LEGENDRE_A, _LEGENDRE_B, n_max + 1))


def odd_pgf_via_ratio(n: int, e_n: QPoly, e_n1: QPoly, e_n2: QPoly) -> QPoly:
    """PGF over 2n+1 tosses as (E_n q + E_{n+1}) / (q+1), exactly."""
    return (e_n.shift(1) + e_n1).divide_exact(_Q_PLUS_1)


def odd_pgf_via_derivative(n: int, e_n: QPoly, e_n1: QPoly, e_n2: QPoly) -> QPoly:
    """Same polynomial as E_{n+1} + (1-q)/(2(n+1)) * E_{n+1}'.

    Blind to E_{n+1} moved along c (1-q)^{2n+2}, the kernel of that map, where
    the ratio form raises InexactDivision: no one identity is the check.
    """
    return e_n1 + (QPoly((1, -1)) * e_n1.derivative()).scale(Fraction(1, 2 * (n + 1)))


def odd_pgf_via_three_term(n: int, e_n: QPoly, e_n1: QPoly, e_n2: QPoly) -> QPoly:
    """Same polynomial from the three-term form.

    [((2n+3)(q^2+1) + (2n+2)q) q E_n + 2(n+2) E_{n+2}]
        / [(1+q+q^2+q^3)(2n+3)]
    """
    weight = QPoly((2 * n + 3, 2 * n + 2, 2 * n + 3)).shift(1)  # ((2n+3)(q^2+1)+(2n+2)q) q
    num = weight * e_n + e_n2.scale(2 * (n + 2))
    return num.divide_exact(QPoly((1, 1, 1, 1))).scale(Fraction(1, 2 * n + 3))


def odd_pgf_via_parity_split(n: int, e_n: QPoly, e_n1: QPoly, e_n2: QPoly) -> QPoly:
    """Same polynomial assembled from its even and odd q-parts.

    even part (E_{n+1} - q^2 E_n) / (1-q^2), odd part
    q (E_n - E_{n+1}) / (1-q^2); each division is exact.
    """
    one_minus_q2 = QPoly((1, 0, -1))
    even = (e_n1 - e_n.shift(2)).divide_exact(one_minus_q2)
    odd = (e_n - e_n1).shift(1).divide_exact(one_minus_q2)
    return even + odd


def odd_pgf_via_partial_sums(n: int, e_n: QPoly, e_n1: QPoly, e_n2: QPoly) -> QPoly:
    """The (2n+1)-toss PGF from partial sums of w[2j, 2m].

    With w[2j, 2m] = P(N_2m = 2j) = u_j u_{m-j}, u_k = C(2k, k) / 4^k, read off
    the even laws:
        coeff(2i)   = sum_{j<=i} w[2j, 2n+2] - sum_{j<=i-1} w[2j, 2n]
        coeff(2i+1) = sum_{j<=i} w[2j, 2n]   - sum_{j<=i}   w[2j, 2n+2]
    No polynomial division at all; a third, purely additive route.  The sums
    are prefix sums of the even PGFs' integer numerators over their common
    denominator, whose slot 2i-1 holds sum_{j<=i-1}; past a degree they add 0.
    Blind to E_{n+1} past q^{2n}: moved by c (q^{2n+2} - q^{2n+1}) it still
    gives the law, where the ratio and parity-split forms raise InexactDivision.
    """
    (lo, lo_den), (hi, hi_den) = e_n.numerators, e_n1.numerators
    den = math.lcm(lo_den, hi_den)
    lo = list(accumulate(c * (den // lo_den) for c in lo + (0,) * (2 * n + 1 - len(lo))))
    hi = list(accumulate(c * (den // hi_den) for c in hi + (0,) * (2 * n + 1 - len(hi))))
    out: list[int] = []
    for i in range(n + 1):
        out += [hi[2 * i] - (lo[2 * i - 1] if i else 0), lo[2 * i] - hi[2 * i]]
    return QPoly._make(out, den)


def lagrange_series(a: Scalar | QPoly, b: Scalar | QPoly, order: int) -> tuple:
    """Coefficients of 1/sqrt(1 - 2az + (a^2 - 4b^2) z^2) by three-term recurrence.

    (m+1) c_{m+1} = (2m+1) a c_m - m (a^2 - 4b^2) c_{m-1}, c_0 = 1, c_1 = a.
    When a^2 - 4b^2 = 1 the coefficients are the Legendre values P_m(a), which
    the Lagrange rows compare with the explicit sum; at polynomial (a, b), as
    `legendre_pgf_table`, the two-route rows compare them with the closed law.
    """
    if order < 0:
        raise DomainError(f"order must be non-negative, got {order}")
    if not isinstance(a, QPoly):  # rational (a, b) give Fractions, polynomial a QPolys
        a, b = Fraction(a), Fraction(b)
    one = QPoly.one() if isinstance(a, QPoly) else Fraction(1)
    c = a * a - 4 * b * b
    out = [one, a][:order]
    for m in range(1, order - 1):
        out.append(((2 * m + 1) * a * out[m] - m * c * out[m - 1]) * Fraction(1, m + 1))
    return tuple(out)
