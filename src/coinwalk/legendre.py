"""Legendre-polynomial identities for the walk PGFs.

The even-length PGF (the z^{2n} series coefficient) is both the closed law of
`coinwalk.distributions` and a scaled Legendre evaluation:

    even_pgf(n) = sum_k return_prob(k) return_prob(n-k) q^{2k}
                = q^n P_n((q + 1/q)/2)

and the odd-length PGF has four further expressions in terms of even_pgf,
all of which must agree exactly; an InexactDivision anywhere in this module
falsifies an identity and is allowed to propagate.  Legendre polynomials use
the standard normalization P_n(1) = 1 and are returned as plain QPoly values
in the argument variable, built from their explicit sum (see `legendre`), so
the harness's Lagrange rows compare a three-term recurrence with a formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate

from .distributions import even_distribution, pgf
from .qpoly import QPoly, Scalar, binomial

_Q_PLUS_1 = QPoly((1, 1))


def legendre(n: int) -> QPoly:
    """P_n(x) = 2^-n sum_k (-1)^k C(n,k) C(2n-2k,n) x^(n-2k), k = 0..n/2."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = binomial(n, k) * binomial(2 * n - 2 * k, n)
        coeffs[n - 2 * k] = Fraction(-c if k % 2 else c, 2**n)
    return QPoly(coeffs)


@cache
def even_pgf(n: int) -> QPoly:
    """PGF of the positive-step count over 2n tosses, from the closed law.

    Memoized, like `even_pgf_via_legendre`: the value is immutable, and the
    odd identities and the verify harness ask for each n several times.
    """
    return pgf(even_distribution(n))


@cache
def even_pgf_via_legendre(n: int) -> QPoly:
    """The same polynomial as q^n P_n((q + 1/q)/2), by Laurent evaluation.

    Written homogeneously: with P_n(x) = sum_j c_j x^j,
    q^n P_n((q^2+1)/(2q)) = sum_j c_j (q^2+1)^j (2q)^{n-j} / 2^n, which is a
    genuine polynomial (every q-power is non-negative); only the scalar 2^n
    needs clearing, so no rational-function type is ever involved.  The sum
    runs by homogeneous Horner, j = n down to 0: acc (q^2+1) + c_j (2q)^{n-j}.
    """
    c = legendre(n).coeffs
    acc = QPoly.zero()
    for j in range(n, -1, -1):
        acc = acc + acc.shift(2) + QPoly.monomial(n - j, c[j] * 2 ** (n - j))
    return acc.scale(Fraction(1, 2**n))


def odd_pgf_via_ratio(n: int) -> QPoly:
    """PGF over 2n+1 tosses as (even_pgf(n) q + even_pgf(n+1)) / (q+1), exactly."""
    return (even_pgf(n).shift(1) + even_pgf(n + 1)).divide_exact(_Q_PLUS_1)


def odd_pgf_via_derivative(n: int) -> QPoly:
    """Same polynomial as even_pgf(n+1) + (1-q)/(2(n+1)) * even_pgf(n+1)'."""
    a = even_pgf(n + 1)
    return a + (QPoly((1, -1)) * a.derivative()).scale(Fraction(1, 2 * (n + 1)))


def odd_pgf_via_three_term(n: int) -> QPoly:
    """Same polynomial from the three-term form.

    [((2n+3)(q^2+1) + (2n+2)q) q even_pgf(n) + 2(n+2) even_pgf(n+2)]
        / [(1+q+q^2+q^3)(2n+3)]
    """
    weight = QPoly((2 * n + 3, 2 * n + 2, 2 * n + 3)).shift(1)  # ((2n+3)(q^2+1)+(2n+2)q) q
    num = weight * even_pgf(n) + even_pgf(n + 2).scale(2 * (n + 2))
    return num.divide_exact(QPoly((1, 1, 1, 1))).scale(Fraction(1, 2 * n + 3))


def odd_pgf_via_parity_split(n: int) -> QPoly:
    """Same polynomial assembled from its even and odd q-parts.

    even part (even_pgf(n+1) - q^2 even_pgf(n)) / (1-q^2), odd part
    q (even_pgf(n) - even_pgf(n+1)) / (1-q^2); each division is exact.
    """
    a_n, a_n1 = even_pgf(n), even_pgf(n + 1)
    one_minus_q2 = QPoly((1, 0, -1))
    even = (a_n1 - a_n.shift(2)).divide_exact(one_minus_q2)
    odd = (a_n - a_n1).shift(1).divide_exact(one_minus_q2)
    return even + odd


def odd_masses_via_partial_sums(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the (2n+1)-toss PGF from partial sums of w[2j, 2m].

    With w[2j, 2m] = P(N_2m = 2j) = return_prob(j) return_prob(m-j), read off
    the even laws:
        coeff(2i)   = sum_{j<=i} w[2j, 2n+2] - sum_{j<=i-1} w[2j, 2n]
        coeff(2i+1) = sum_{j<=i} w[2j, 2n]   - sum_{j<=i}   w[2j, 2n+2]
    No polynomial division at all; a third, purely additive route.  The sums
    are prefix sums of the even PGFs' coefficients (the even laws' masses),
    whose slot 2i-1 holds sum_{j<=i-1}.
    """
    lo, hi = (tuple(accumulate(even_pgf(k).coeffs)) for k in (n, n + 1))
    out: list[Fraction] = []
    for i in range(n + 1):
        out += [hi[2 * i] - (lo[2 * i - 1] if i else 0), lo[2 * i] - hi[2 * i]]
    return tuple(out)


def lagrange_series(a: Scalar, b: Scalar, order: int) -> tuple[Fraction, ...]:
    """Coefficients of 1/sqrt(1 - 2az + (a^2 - 4b^2) z^2) by three-term recurrence.

    (m+1) c_{m+1} = (2m+1) a c_m - m (a^2 - 4b^2) c_{m-1}, c_0 = 1, c_1 = a.
    When a^2 - 4b^2 = 1 the coefficients are the Legendre values P_m(a).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    a = Fraction(a)
    c = a**2 - 4 * Fraction(b) ** 2
    out = [Fraction(1), a][:order]
    for m in range(1, order - 1):
        out.append(((2 * m + 1) * a * out[m] - m * c * out[m - 1]) / (m + 1))
    return tuple(out)
