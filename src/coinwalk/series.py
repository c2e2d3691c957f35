"""Truncated bivariate formal power series over exact rationals.

A :class:`BivariateSeries` of order Z keeps the coefficients of z^0..z^{Z-1},
each a :class:`~coinwalk.qpoly.QPoly` in the marking variable q.  Arithmetic
is exact; results carry the minimum order of the operands, and truncation is
always explicit (no lazy streams), so every computation has a reproducible
cost and an auditable precision.

Division runs in two stages: first the z-valuation of the denominator is
cancelled (numerator must vanish at least as fast, else ValuationError), then
ordinary long division proceeds with one exact q-polynomial division per
output coefficient.  When the denominator's post-cancellation constant term
is a plain rational this is the classic series reciprocal; when it is a
polynomial such as q+1 each step must divide exactly or the whole run aborts
with InexactDivision.  Aborting is the point: the expansions built here
(`pgf_series_*`, `nonneg_series`) encode identities whose failure must
surface loudly, not be smoothed over.

Multiplication, division and square root share one product helper, `_dot`.
Only sqrt(1-z^2) is expanded; sqrt(1-q^2 z^2) is that series at qz, so no
builder takes the square root of a series with q-dependent coefficients.

The expansions provided:

* ``pgf_series_even``  - 1 / (sqrt(1-z^2) sqrt(1-q^2 z^2)); its z^{2n}
  coefficient is the PGF of the positive-step count over 2n tosses.
* ``pgf_series_odd``   - the odd-in-z part, built from the difference form
  ((1/(sqrt(1-z^2) sqrt(1-q^2 z^2)) - 1)/((q+1)z) + qz/(sqrt(...) (q+1))),
  combined over the common denominator (q+1) before dividing, since the
  two terms are not separately polynomial in q.
* ``pgf_series_odd_ratio`` - the same function from its explicit
  numerator/denominator radical form; an independent route for the harness.
* ``pgf_series``       - even + odd: the full double generating function
  sum_n p(n, 0, q) z^n for a walk started at 0.
* ``pgf_series_ratio`` - a published single-ratio radical form for the full
  series, expanded exactly as printed.  Its expansion does NOT agree with
  the other routes (the printed text is odd in z, so its even part is
  identically zero); it is retained verbatim so the verify harness can
  report the first differing coefficient rather than anyone silently
  patching the formula.
* ``nonneg_series``    - the closed form for the count of non-negative
  partial sums (k = 0..n), with the radical read as sqrt(1-q^2 z^2); the
  literal printed radical sqrt(1-q^2-z^2) admits no power-series expansion
  at z = 0 (its second term's numerator does not vanish there), and the
  corrected reading is confirmed against enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import DomainError, InexactDivision, SqrtDomainError, ValuationError
from .qpoly import QPoly, Scalar

_PolyLike = Union[QPoly, int, Fraction]


def _as_poly(c: _PolyLike) -> QPoly:
    return c if isinstance(c, QPoly) else QPoly((c,))


def _dot(xs: Sequence[QPoly], ys: Sequence[QPoly]) -> QPoly:
    """Sum of x*y over paired coefficients: one z-coefficient of a Cauchy product."""
    return sum((x * y for x, y in zip(xs, ys) if x and y), QPoly.zero())


@dataclass(frozen=True)
class BivariateSeries:
    """Truncated series in z with QPoly coefficients; exactly `order` slots."""

    order: int
    coeffs: tuple[QPoly, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient count must equal order")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Mapping[int, _PolyLike], order: int) -> "BivariateSeries":
        """Series from a sparse {z-power: coefficient} map."""
        cs = [QPoly.zero()] * order
        for k, c in terms.items():
            if k < 0:
                raise ValueError("negative z-power")
            if k < order:
                cs[k] = _as_poly(c)
        return cls(order, tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "BivariateSeries":
        return cls(order, (QPoly.zero(),) * order)

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls.from_terms({0: 1}, order)

    # -- structure --------------------------------------------------------

    def coeff(self, n: int) -> QPoly:
        if not 0 <= n < self.order:
            raise DomainError(f"z^{n} not retained at order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Smallest z-power with nonzero coefficient; None if zero to this order."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def truncate(self, order: int) -> "BivariateSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return BivariateSeries(order, self.coeffs[:order])

    # -- linear arithmetic ------------------------------------------------

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        z = min(self.order, other.order)
        return BivariateSeries(z, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        z = min(self.order, other.order)
        return BivariateSeries(z, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries(self.order, tuple(-c for c in self.coeffs))

    def scale(self, c: _PolyLike) -> "BivariateSeries":
        """Multiply every coefficient by a fixed q-polynomial or scalar."""
        p = _as_poly(c)
        return BivariateSeries(self.order, tuple(a * p for a in self.coeffs))

    def shift_up(self, k: int) -> "BivariateSeries":
        """Multiply by z^k; the low coefficients are known zeros, so order grows."""
        return BivariateSeries(self.order + k, (QPoly.zero(),) * k + self.coeffs)

    def shift_down(self, k: int) -> "BivariateSeries":
        """Divide by z^k; requires valuation >= k."""
        if any(self.coeffs[i] for i in range(min(k, self.order))):
            raise ValuationError(f"valuation below {k}; cannot divide by z^{k}")
        return BivariateSeries(self.order - k, self.coeffs[k:])

    # -- multiplicative arithmetic ---------------------------------------

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        z = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return BivariateSeries(z, tuple(_dot(a[: n + 1], b[n::-1]) for n in range(z)))

    def __truediv__(self, den: "BivariateSeries") -> "BivariateSeries":
        """Series quotient with quotient * den = num up to truncation.

        Valuations cancel first; then each output coefficient requires one
        exact division by the denominator's leading q-polynomial.
        """
        v = den.valuation()
        if v is None:
            raise ValuationError("division by a series that is zero to its order")
        if v:
            num_v = self.valuation()
            if num_v is not None and num_v < v:
                raise ValuationError(
                    f"numerator valuation {num_v} below denominator valuation {v}"
                )
            num = self.shift_down(v) if num_v is not None else self.truncate(self.order - v)
            den = den.shift_down(v)
        else:
            num = self
        z = min(num.order, den.order)
        lead = den.coeffs[0]
        out: list[QPoly] = []
        for n in range(z):
            acc = num.coeffs[n] - _dot(out, den.coeffs[n:0:-1])
            out.append(acc.divide_exact(lead))
        return BivariateSeries(z, tuple(out))

    def reciprocal(self) -> "BivariateSeries":
        return BivariateSeries.one(self.order) / self

    def sqrt(self) -> "BivariateSeries":
        """Square root with constant term 1 (the only case needed here)."""
        if self.coeffs[0] != QPoly.one():
            raise SqrtDomainError("series sqrt requires constant term exactly 1")
        out = [QPoly.one()]
        for n in range(1, self.order):
            acc = self.coeffs[n] - _dot(out[1:], out[n - 1 : 0 : -1])
            out.append(acc.scale(Fraction(1, 2)))
        return BivariateSeries(self.order, tuple(out))

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        rows = [f"z^{n}: {c}" for n, c in enumerate(self.coeffs)]
        return "\n".join(rows)


def extract_pgf(series: BivariateSeries, n: int) -> QPoly:
    """The z^n coefficient (the n-step PGF for the walk series)."""
    return series.coeff(n)


# -- named expansions -------------------------------------------------------


def _check_order(order: int):
    if order < 1:
        raise DomainError("order must be at least 1")


def _sqrt_one_minus_z2(order: int) -> BivariateSeries:
    return BivariateSeries.from_terms({0: 1, 2: -1}, order).sqrt()


def _at_qz(s: BivariateSeries) -> BivariateSeries:
    """s evaluated at qz: the z^n coefficient times q^n."""
    return BivariateSeries(s.order, tuple(c.shift(n) for n, c in enumerate(s.coeffs)))


def pgf_series_even(order: int) -> BivariateSeries:
    """1/(sqrt(1-z^2) sqrt(1-q^2 z^2)); z^{2n} coefficient = even-length PGF."""
    _check_order(order)
    rz = _sqrt_one_minus_z2(order)
    return (rz * _at_qz(rz)).reciprocal()


def _odd_from_even(even: BivariateSeries) -> BivariateSeries:
    """(E-1)/((q+1)z) + qzE/(q+1) for E = `even`, to one order less than E."""
    qz_even = even.scale(QPoly.q()).shift_up(1)
    numerator = (even - BivariateSeries.one(even.order)).shift_down(1) + qz_even
    return numerator / BivariateSeries.from_terms({0: QPoly((1, 1))}, numerator.order)


def pgf_series_odd(order: int) -> BivariateSeries:
    """Odd part of the walk series, from the difference form.

    With E = 1/(sqrt(1-z^2) sqrt(1-q^2 z^2)) this is (E-1)/((q+1)z)
    + qzE/(q+1).  Neither term alone has polynomial q-coefficients, so both
    are combined over (q+1) first; each z-coefficient then divides exactly,
    and a failure would falsify the underlying identity (InexactDivision).
    The division by z costs one order, so E is expanded to order + 1.
    """
    _check_order(order)
    return _odd_from_even(pgf_series_even(order + 1))


def pgf_series_odd_ratio(order: int) -> BivariateSeries:
    """Odd part from its explicit ratio form.

    numerator   sqrt(1-z^2) sqrt(1-q^2 z^2) (qz^2+1) - z^2 (q^2 (z^2-1) - 1) - 1
    denominator (1-z^2)(1-q^2 z^2)(q+1) z
    """
    _check_order(order)
    o = order + 3
    rz = _sqrt_one_minus_z2(o)
    rqz = _at_qz(rz)
    # -z^2 (q^2 (z^2-1) - 1) = (q^2+1) z^2 - q^2 z^4
    num = (
        rz * rqz * BivariateSeries.from_terms({0: 1, 2: QPoly.q()}, o)
        + BivariateSeries.from_terms({2: QPoly((1, 0, 1)), 4: QPoly.monomial(2, -1)}, o)
        - BivariateSeries.one(o)
    )
    den = (
        BivariateSeries.from_terms({0: 1, 2: -1}, o)
        * BivariateSeries.from_terms({0: 1, 2: QPoly.monomial(2, -1)}, o)
        * BivariateSeries.from_terms({1: QPoly((1, 1))}, o)
    )
    return (num / den).truncate(order)


def pgf_series(order: int) -> BivariateSeries:
    """Full walk series sum_n p(n,0,q) z^n, assembled from its parity parts.

    Each part has its own radical closed form; the single-ratio printed form
    of the sum is kept separately in `pgf_series_ratio` for auditing because
    its transcription is defective (see module docstring).
    """
    _check_order(order)
    even = pgf_series_even(order + 1)
    return even + _odd_from_even(even)


def pgf_series_ratio(order: int) -> BivariateSeries:
    """The single-ratio radical form for the full series, exactly as printed.

    Expanded verbatim so the harness can compare it against the recursion
    route coefficient by coefficient and report the first discrepancy; do
    not "fix" terms here.
    """
    _check_order(order)
    o = order + 2
    rz = _sqrt_one_minus_z2(o)
    rqz = _at_qz(rz)
    one = BivariateSeries.one(o)
    z2 = BivariateSeries.from_terms({2: 1}, o)

    # (qz^2 - 1)(2z^2 + sqrt(1-z^2)(z^2 - 1) - 1)
    #   + (1-z^2) sqrt(1-q^2 z^2) (2 sqrt(1-z^2) - z^2 + 2)
    bracket_num = BivariateSeries.from_terms({2: QPoly.q(), 0: -1}, o) * (
        z2.scale(2) + rz * BivariateSeries.from_terms({2: 1, 0: -1}, o) - one
    ) + BivariateSeries.from_terms({0: 1, 2: -1}, o) * rqz * (
        rz.scale(2) + BivariateSeries.from_terms({0: 2, 2: -1}, o)
    )
    numerator = (rqz * bracket_num).scale(QPoly((-1, -1))).shift_up(1)  # * -z(q+1)

    # ((q^2+1)z^2 - 2)(2 sqrt(1-z^2) - z^2 + 2)
    #   + sqrt(1-q^2 z^2)(4z^2 + 2 sqrt(1-z^2)(z^2 - 2) - 4)
    bracket_den = BivariateSeries.from_terms({2: QPoly((1, 0, 1)), 0: -2}, o) * (
        rz.scale(2) + BivariateSeries.from_terms({0: 2, 2: -1}, o)
    ) + rqz * (
        BivariateSeries.from_terms({2: 4, 0: -4}, o)
        + rz * BivariateSeries.from_terms({2: 2, 0: -4}, o)
    )
    denominator = (
        BivariateSeries.from_terms({0: 1, 2: -1}, o)
        * BivariateSeries.from_terms({0: 1, 2: QPoly.monomial(2, -1)}, o)
        * bracket_den
    )
    return (numerator / denominator).truncate(order)


def nonneg_series(order: int) -> BivariateSeries:
    """Series for the count of non-negative partial sums (k = 0..n).

    q/(1-qz) plus a radical correction term; the z^n coefficient is the PGF
    of the NON_NEGATIVE count, whose slot-0 mass is empty (S_0 = 0 always
    counts, so the constant coefficient is q, not 1).
    """
    _check_order(order)
    o = order + 2
    rz = _sqrt_one_minus_z2(o)
    rqz = _at_qz(rz)
    one = BivariateSeries.one(o)

    geometric = BivariateSeries.from_terms(
        {0: 1, 1: QPoly.monomial(1, -1)}, o
    ).reciprocal().scale(QPoly.q())

    # sqrt(1-q^2 z^2)(sqrt(1-z^2) + 1 - z) - (1-qz) sqrt(1-z^2) + (1 - q(1-z))z - 1
    correction_num = (
        rqz * (rz + one - BivariateSeries.from_terms({1: 1}, o))
        - BivariateSeries.from_terms({0: 1, 1: QPoly.monomial(1, -1)}, o) * rz
        + BivariateSeries.from_terms({1: QPoly((1, -1)), 2: QPoly.q()}, o)
        - one
    )
    # 2(z-1) z (qz-1) = z * 2(z-1)(qz-1)
    correction_den = BivariateSeries.from_terms(
        {0: 2, 1: QPoly((-2, -2)), 2: QPoly.monomial(1, 2)}, o
    ).shift_up(1)
    return (geometric + correction_num / correction_den).truncate(order)
