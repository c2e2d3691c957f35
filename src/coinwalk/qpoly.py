"""Exact arithmetic substrate: integer combinatorics and polynomials in q.

Scalars are ``fractions.Fraction`` throughout; nothing in this package ever
rounds.  ``QPoly`` is an immutable dense polynomial in the marking variable q.
It stores integer numerators over one common positive denominator, in
canonical form: no trailing zeros (so the zero polynomial has degree -1) and
gcd(denominator, numerators) = 1.  Every law here is a path count over 2^m,
so the denominators stay small and shared, and each operation is integer
arithmetic plus one gcd reduction of its result; ``coeffs`` hands out
Fractions only at the boundary.  ``+``, ``-`` and ``==`` take QPolys only
(a QPoly never equals a scalar); an int or Fraction only multiplies, as a
one-pass ``scale``.  A sum or difference brings both numerator lists to the
lcm denominator inside its one summing pass.  Division is integer
pseudo-division: the dividend is scaled once by |lead|^k, for the divisor's
leading coefficient and the k quotient steps, and every step then divides
exactly.  The factor is 1 for the divisors q+1, 1-q^2, 1+q+q^2+q^3 with lead
+-1, and a power of 2 or 16 for the constants 2 and -16 the series routes
divide by.  It is exact-or-loud: a nonzero remainder raises
:class:`~coinwalk.errors.InexactDivision` instead of being discarded, because
every division performed here encodes an identity that is supposed to hold
exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, InexactDivision

Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) as an exact integer.

    Total on purpose: returns 0 for k > n (as ``math.comb`` does) so
    convolution loops need no bounds checks.  Negative arguments are a usage
    error.
    """
    if n < 0 or k < 0:
        raise DomainError(f"binomial needs non-negative arguments, got ({n}, {k})")
    return math.comb(n, k)


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
        """Store nums/den (den > 0) in canonical form, trimming and reducing nums in place."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if nums else den
        if g != 1:
            for i, c in enumerate(nums):
                nums[i] = c // g
            den //= g
        self._nums = tuple(nums)
        self._den = den

    @classmethod
    def _make(cls, nums: list[int], den: int) -> "QPoly":
        """The polynomial nums/den (den > 0), taking ownership of nums.

        nums must be a fresh list that no one else holds: canonicalisation
        pops its trailing zeros and divides it by the gcd in place, so a
        large law is never held twice.  The QPoly keeps a tuple of it, and
        stays immutable.
        """
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
        if k < 0:
            raise DomainError(f"exponent must be non-negative, got {k}")
        return cls((0,) * k + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def numerators(self) -> tuple[tuple[int, ...], int]:
        """The canonical storage (nums, den): coefficient i is nums[i] / den.

        For callers that work on the integers themselves, such as the laws'
        validation and prefix sums; read-only, like every QPoly.  The command
        line renders exact text from it.
        """
        return self._nums, self._den

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
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return _add(self, other, 1)

    def __neg__(self) -> "QPoly":
        return self.scale(-1)

    def __sub__(self, other) -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return _add(self, other, -1)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly.dot((self,), (other,))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Iterable["QPoly"], ys: Iterable["QPoly"]) -> "QPoly":
        """The sum of x y over zip(xs, ys), canonicalised once; `*` is one pair.

        The schoolbook products' integer numerators are summed over the lcm
        of their denominators, so no partial sum pays an lcm or a gcd.
        """
        pairs = [(x, y) for x, y in zip(xs, ys) if x._nums and y._nums]
        if not pairs:
            return QPoly()
        den = math.lcm(*(x._den * y._den for x, y in pairs))
        out = [0] * (max(len(x._nums) + len(y._nums) for x, y in pairs) - 1)
        for x, y in pairs:
            f, b = den // (x._den * y._den), y._nums
            for i, cx in enumerate(x._nums):
                if cx:
                    cx *= f
                    for j, cy in enumerate(b, i):
                        if cy:
                            out[j] += cx * cy
        return QPoly._make(out, den)

    def scale(self, s: Scalar) -> "QPoly":
        num = s.numerator
        return QPoly._make([c * num for c in self._nums], self._den * s.denominator)

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if k < 0:
            raise DomainError(f"exponent must be non-negative, got {k}")
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

    # -- division -------------------------------------------------------

    def divmod(self, div: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Quotient and remainder of polynomial long division.

        Pseudo-division on the integer numerators: the dividend is scaled
        once by |lead|^k, for the divisor's lead and the k quotient steps, so
        each step's leading term is an exact multiple of the lead (by
        induction, step t leaves the rest a multiple of |lead|^(k-t-1)).  The
        factor is 1 for a lead of +-1, and |lead| for a constant divisor, where
        each step touches only its own coefficient.
        """
        if div.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dd = div.degree
        if len(self._nums) <= dd:
            return QPoly(), self
        divisor = div._nums
        lead = divisor[-1]
        scale = abs(lead) ** (len(self._nums) - dd if dd else 1)
        rem = [x * scale for x in self._nums]
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            f = rem[i] // lead
            if f:
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


def _add(x: QPoly, y: QPoly, sign: int) -> QPoly:
    """x + sign * y for sign +-1, rescaled to the lcm denominator in the summing pass."""
    a, b = x._nums, y._nums
    g = math.gcd(x._den, y._den)
    fa, fb = y._den // g, sign * (x._den // g)
    out = [fa * p + fb * r for p, r in zip(a, b)]
    out += [fa * p for p in a[len(b):]] if len(a) > len(b) else [fb * r for r in b[len(a):]]
    return QPoly._make(out, x._den * fa)


def format_poly(poly: QPoly) -> str:
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
            pw = "q" if i == 1 else f"q^{i}"
            body = pw if mag == 1 else f"{mag} {pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
