"""Exact arithmetic substrate: integer combinatorics and polynomials in q.

Scalars are ``fractions.Fraction`` throughout; nothing in this package ever
rounds.  ``QPoly`` is an immutable dense polynomial in the marking variable q.
It stores integer numerators over one common positive denominator, in
canonical form: no trailing zeros (so the zero polynomial has degree -1) and
gcd(denominator, numerators) = 1.  Every law here is a path count over 2^m,
so the denominators stay small and shared, and each operation is integer
arithmetic plus one gcd reduction of its result; ``coeffs`` hands out
Fractions only at the boundary.  Division is integer long division that
rescales by the divisor's leading coefficient only when a leading term is not
a multiple of it (never, for the monic divisors the routes use).  It is
exact-or-loud: a nonzero remainder raises
:class:`~coinwalk.errors.InexactDivision` instead of being discarded, because
every division performed here encodes an identity that is supposed to hold
exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InexactDivision

Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) as an exact integer.

    Total on purpose: returns 0 for k > n so convolution loops need no bounds
    checks.  Negative arguments are a usage error.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs non-negative arguments, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def return_prob(k: int) -> Fraction:
    """Probability that a fair +-1 walk sits at the origin after 2k steps.

    Equals C(2k, k) / 4^k; the building block of every closed-form law in
    this package.
    """
    return Fraction(binomial(2 * k, k), 4**k)


class QPoly:
    """Immutable dense polynomial in q over exact rationals.

    Stored as integer numerators over one common denominator: ``_nums`` has
    no trailing zeros, ``_den`` is positive and gcd(_den, *_nums) == 1, so
    equal polynomials have equal storage.  The zero polynomial is ((), 1).
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list[int], den: int) -> None:
        """Store nums/den (den > 0) in canonical form."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if nums else den
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self._nums = tuple(nums)
        self._den = den

    @classmethod
    def _make(cls, nums: list[int], den: int) -> "QPoly":
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def q(cls) -> "QPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, coeff: Scalar = 1) -> "QPoly":
        """coeff * q^k"""
        return cls((0,) * k + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial (canonical sentinel)."""
        return len(self._nums) - 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of q^i (0 beyond the degree)."""
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash((self._nums, self._den))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(self._nums, self._den, other._nums, other._den)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._make([-c for c in self._nums], self._den)

    def __sub__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(self._nums, self._den, [-c for c in other._nums], other._den)

    def __rsub__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(other._nums, other._den, [-c for c in self._nums], self._den)

    def __mul__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    if cb:
                        out[j] += ca * cb
        return QPoly._make(out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "QPoly":
        s = Fraction(s)
        return QPoly._make([c * s.numerator for c in self._nums], self._den * s.denominator)

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if not self._nums:
            return self
        return QPoly._make([0] * k + list(self._nums), self._den)

    # -- calculus and evaluation ----------------------------------------

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate at a rational point p/r by homogeneous Horner on the numerators."""
        value = Fraction(value)
        p, r = value.numerator, value.denominator
        acc, r_pow = 0, 1
        for c in reversed(self._nums):
            acc = acc * p + c * r_pow
            r_pow *= r
        # acc = sum_i c_i p^i r^(deg - i); r_pow = r^(deg + 1)
        return Fraction(acc * r, r_pow * self._den)

    def derivative(self) -> "QPoly":
        return QPoly._make([i * c for i, c in enumerate(self._nums) if i], self._den)

    def even_part(self) -> "QPoly":
        """Terms of even q-degree, exponents kept."""
        return QPoly._make([c if i % 2 == 0 else 0 for i, c in enumerate(self._nums)], self._den)

    def odd_part(self) -> "QPoly":
        return QPoly._make([c if i % 2 == 1 else 0 for i, c in enumerate(self._nums)], self._den)

    # -- division -------------------------------------------------------

    def divmod(self, div: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Quotient and remainder of polynomial long division.

        Runs on the integer numerators: rem and quot share one integer scale,
        raised by |lead| / gcd only when a leading term is not a multiple of
        the divisor's lead (never, for a monic divisor).
        """
        if not isinstance(div, QPoly):
            div = QPoly((div,))
        if div.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dd = div.degree
        if len(self._nums) <= dd:
            return QPoly(), self
        divisor = div._nums
        lead = divisor[-1]
        rem = list(self._nums)
        quot = [0] * (len(rem) - dd)
        scale = 1  # the true remainder and quotient are rem/scale and quot/scale
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            if c % lead:
                m = abs(lead) // math.gcd(c, lead)
                rem = [x * m for x in rem]
                quot = [x * m for x in quot]
                scale *= m
                c *= m
            f = c // lead
            quot[i - dd] = f
            for j, d in enumerate(divisor, i - dd):
                rem[j] -= f * d
        # nums = (quot/scale) div_nums + rem/scale; dividing by this den and
        # writing div = div_nums/div_den gives quotient quot div_den/(scale den)
        den = scale * self._den
        return (QPoly._make([x * div._den for x in quot], den),
                QPoly._make(rem[:dd], den))

    def divide_exact(self, div: "QPoly") -> "QPoly":
        """Exact quotient; raises InexactDivision if any remainder is left."""
        quot, rem = self.divmod(div)
        if not rem.is_zero():
            raise InexactDivision(
                f"({self}) is not divisible by ({div}); remainder {rem}", remainder=rem
            )
        return quot

    # -- formatting -----------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


def _add(a: Sequence[int], a_den: int, b: Sequence[int], b_den: int) -> QPoly:
    """a/a_den + b/b_den over the least common denominator."""
    if a_den != b_den:
        g = math.gcd(a_den, b_den)
        a = [x * (b_den // g) for x in a]
        b = [x * (a_den // g) for x in b]
        a_den *= b_den // g
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    return QPoly._make(out, a_den)


def _coerce(value) -> QPoly | None:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QPoly((value,))
    return None


def format_poly(poly: QPoly, var: str = "q") -> str:
    """Render like '3/8 + 1/8 q + 1/8 q^2 + 3/8 q^3' (zero terms skipped)."""
    if poly.is_zero():
        return "0"
    parts: list[str] = []
    for i, c in enumerate(poly.coeffs):
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            pw = var if i == 1 else f"{var}^{i}"
            body = pw if mag == 1 else f"{mag} {pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
