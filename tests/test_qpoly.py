import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coinwalk.errors import InexactDivision
from coinwalk.qpoly import QPoly, binomial, format_poly, return_prob

F = Fraction


def pascal_triangle(rows):
    """Independent oracle: Pascal's rule only, no factorials."""
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        tri.append(row)
    return tri


class TestBinomial:
    def test_empty_product(self):
        assert binomial(0, 0) == 1

    def test_small_by_hand(self):
        assert binomial(4, 2) == 6

    def test_against_pascal_oracle(self):
        tri = pascal_triangle(31)
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == tri[n][k]
        assert binomial(30, 15) == 155117520 == tri[30][15]

    def test_total_above_n(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestReturnProb:
    def test_values(self):
        assert return_prob(0) == 1
        assert return_prob(1) == F(1, 2)
        assert return_prob(3) == F(5, 16)

    def test_recurrence(self):
        # u_{2k} = u_{2k-2} * (2k-1)/(2k), exactly
        for k in range(1, 65):
            assert return_prob(k) == return_prob(k - 1) * F(2 * k - 1, 2 * k)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
small_polys = st.lists(small_fractions, max_size=13).map(QPoly)
nonzero_polys = small_polys.filter(bool)


class TestQPoly:
    def test_canonical_form(self):
        assert QPoly((1, 2, 0, 0)) == QPoly((1, 2))
        assert QPoly((0,)).degree == -1
        assert QPoly().is_zero()
        assert QPoly((0, 0, 3)).degree == 2

    def test_coeff_beyond_degree(self):
        p = QPoly((1, 2))
        assert p.coeff(5) == 0

    def test_eval_and_derivative(self):
        p = QPoly((3, 0, 1))  # 3 + q^2
        assert p(2) == 7
        assert p.derivative() == QPoly((0, 2))

    def test_parity_split(self):
        p = QPoly((1, 2, 3, 4))
        assert p.even_part() + p.odd_part() == p
        assert p.even_part() == QPoly((1, 0, 3))

    def test_divide_exact_factorization(self):
        assert QPoly((-1, 0, 1)).divide_exact(QPoly((1, 1))) == QPoly((-1, 1))

    def test_divide_exact_synthetic(self):
        num = QPoly((F(3, 8), F(1, 2), F(1, 4), F(1, 2), F(3, 8)))
        want = QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))
        assert num.divide_exact(QPoly((1, 1))) == want

    def test_divide_inexact_raises(self):
        with pytest.raises(InexactDivision) as err:
            QPoly((1, 1)).divide_exact(QPoly((0, 1)))
        assert err.value.remainder == QPoly((1,))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QPoly((1,)).divmod(QPoly())

    def test_format(self):
        assert str(QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))) == "3/8 + 1/8 q + 1/8 q^2 + 3/8 q^3"
        assert str(QPoly()) == "0"
        assert str(QPoly((0, -1, 1))) == "-q + q^2"
        assert format_poly(QPoly((0, 0, F(-3, 2))), var="x") == "-3/2 x^2"

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(small_polys, nonzero_polys)
    def test_exact_division_roundtrip(self, a, b):
        assert (a * b).divide_exact(b) == a

    @given(small_polys, nonzero_polys)
    def test_divmod_invariant(self, a, b):
        quot, rem = a.divmod(b)
        assert quot * b + rem == a
        assert rem.degree < b.degree or rem.is_zero()


# -- the integer kernel against plain list-of-Fraction arithmetic ----------------


def ref(p):
    """The reference value of a QPoly: its coefficient list."""
    return list(p.coeffs)


def ref_trim(cs):
    cs = [F(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a, b):
    size = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(size)])


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        quot[i - len(b) + 1] = f
        for j, y in enumerate(b):
            rem[i - len(b) + 1 + j] -= f * y
    return ref_trim(quot), ref_trim(rem)


def assert_canonical(p):
    nums, den = p._nums, p._den
    assert den > 0
    assert not nums or nums[-1] != 0
    assert math.gcd(den, *nums) == 1
    assert ref(p) == [F(c, den) for c in nums]


wide_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=720)
coeff_lists = st.lists(wide_fractions, max_size=9)
wide_polys = coeff_lists.map(QPoly)


class TestIntegerKernel:
    @given(coeff_lists)
    def test_constructor_is_canonical(self, cs):
        p = QPoly(cs)
        assert_canonical(p)
        assert ref(p) == ref_trim(cs)

    @given(wide_polys, wide_polys)
    def test_add_sub_neg(self, a, b):
        for got, want in ((a + b, ref_add(ref(a), ref(b))),
                          (a - b, ref_add(ref(a), [-c for c in ref(b)])),
                          (-a, [-c for c in ref(a)])):
            assert_canonical(got)
            assert ref(got) == want

    @given(wide_polys, wide_polys)
    def test_mul(self, a, b):
        assert_canonical(a * b)
        assert ref(a * b) == ref_mul(ref(a), ref(b))

    @given(wide_polys, wide_fractions)
    def test_scale(self, a, s):
        assert_canonical(a.scale(s))
        assert ref(a.scale(s)) == ref_trim([c * s for c in ref(a)])

    @given(wide_polys, st.integers(0, 5))
    def test_shift(self, a, k):
        assert_canonical(a.shift(k))
        assert ref(a.shift(k)) == ref_trim([0] * k + ref(a))

    @given(wide_polys)
    def test_derivative_and_parts(self, a):
        cs = ref(a)
        cases = ((a.derivative(), [i * c for i, c in enumerate(cs)][1:]),
                 (a.even_part(), [c if i % 2 == 0 else 0 for i, c in enumerate(cs)]),
                 (a.odd_part(), [c if i % 2 else 0 for i, c in enumerate(cs)]))
        for got, want in cases:
            assert_canonical(got)
            assert ref(got) == ref_trim(want)

    @given(wide_polys, wide_fractions)
    def test_evaluation(self, a, x):
        assert a(x) == sum((c * x**i for i, c in enumerate(ref(a))), F(0))

    @given(wide_polys, coeff_lists, wide_fractions.filter(bool))
    def test_divmod(self, a, tail, lead):
        # a lead of either sign, unit or not; the routes only divide by monic ones
        b = QPoly(tail + [lead])
        quot, rem = a.divmod(b)
        assert_canonical(quot)
        assert_canonical(rem)
        assert (ref(quot), ref(rem)) == ref_divmod(ref(a), ref(b))

    @given(wide_polys, wide_polys, st.integers(1, 30))
    def test_equal_values_compare_and_hash_equal(self, a, b, k):
        routes = (a, a + b - b, (a * QPoly((k, k))).divide_exact(QPoly((1, 1))).scale(F(1, k)),
                  a.scale(k).scale(F(1, k)), QPoly(ref(a) + [0, 0]))
        for p in routes:
            assert_canonical(p)
            assert p == a
            assert hash(p) == hash(a)
