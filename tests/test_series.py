from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coinwalk.distributions import law, pgf
from coinwalk.errors import DomainError, InexactDivision, SqrtDomainError, ValuationError
from coinwalk.lattice import dp_pgf_table
from coinwalk.oracle import PositivityRule, oracle_distribution
from coinwalk.qpoly import QPoly
from coinwalk.series import (
    BivariateSeries,
    nonneg_series,
    pgf_series,
    pgf_series_even,
    pgf_series_odd,
    pgf_series_odd_ratio,
    pgf_series_ratio,
)

F = Fraction
S = BivariateSeries.from_terms


def half_binomial(k: int) -> F:
    """Independent oracle: C(1/2, k) = prod_{i<k} (1/2 - i) / (i + 1)."""
    acc = F(1)
    for i in range(k):
        acc *= (F(1, 2) - i) / (i + 1)
    return acc


class TestArithmetic:
    def test_mul_univariate(self):
        a = S({0: 1, 1: 1}, 6)
        b = S({0: 1, 1: -1}, 6)
        assert a * b == S({0: 1, 2: -1}, 6)

    def test_mul_bivariate(self):
        a = S({0: 1, 1: QPoly.q()}, 6)
        b = S({0: 1, 1: QPoly.monomial(1, -1)}, 6)
        assert a * b == S({0: 1, 2: QPoly.monomial(2, -1)}, 6)

    def test_order_is_min(self):
        assert (S({0: 1}, 4) * S({0: 1}, 7)).order == 4
        assert (S({0: 1}, 4) + S({0: 1}, 7)).order == 4

    @pytest.mark.parametrize("c", [3, F(-2, 3), QPoly((1, F(1, 2)))],
                             ids=["int", "fraction", "poly"])
    def test_scale_is_product_with_a_constant_series(self, c):
        a = S({0: QPoly((F(1, 2), 1)), 2: -5, 3: QPoly.q()}, 5)
        assert a.scale(c) == a * S({0: c}, 5)

    def test_shift_roundtrip(self):
        a = S({0: 1, 3: QPoly.q()}, 5)
        assert a.shift_up(2).shift_down(2) == a
        with pytest.raises(ValuationError):
            a.shift_down(1)


class TestDivision:
    def test_cancel_factor(self):
        num = S({0: 1, 2: -1}, 8)
        den = S({0: 1, 1: -1}, 8)
        assert num / den == S({0: 1, 1: 1}, 8)

    def test_valuation_cancellation(self):
        # division does not cancel z itself; the caller shifts both sides down
        num = S({1: 1, 3: 1}, 8)
        den = S({1: 1}, 8)
        with pytest.raises(ValuationError):
            num / den
        assert num.shift_down(1) / den.shift_down(1) == S({0: 1, 2: 1}, 7)

    def test_valuation_error(self):
        with pytest.raises(ValuationError):
            S({0: 1}, 6) / S({1: 1}, 6)

    def test_zero_denominator(self):
        with pytest.raises(ValuationError):
            S({0: 1}, 4) / BivariateSeries((QPoly(),) * 4)

    def test_inexact_q_division_surfaces(self):
        one = BivariateSeries.one(4)
        q_plus_1 = S({0: QPoly((1, 1))}, 4)
        with pytest.raises(InexactDivision):
            one / q_plus_1

    def test_roundtrip_with_rational_lead(self):
        a = S({0: 2, 1: QPoly.q(), 3: QPoly((1, 0, 5))}, 9)
        b = S({0: F(3, 7), 2: QPoly((0, 1, 1))}, 9)
        assert (a * b) / b == a

    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=4
                     ).map(QPoly),
            min_size=5, max_size=5,
        ),
        st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=4
                     ).map(QPoly),
            min_size=4, max_size=4,
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    )
    def test_roundtrip_property(self, a_coeffs, b_tail, b_lead):
        # divisor with a nonzero rational constant term always inverts exactly
        a = BivariateSeries(tuple(a_coeffs))
        b = BivariateSeries((QPoly((b_lead,)),) + tuple(b_tail))
        assert (a * b) / b == a


class TestSqrt:
    def test_binomial_series_oracle(self):
        # sqrt(1 - z^2) = sum_k C(1/2, k) (-1)^k z^{2k}
        root = S({0: 1, 2: -1}, 12).sqrt()
        for k in range(6):
            assert root.coeff(2 * k) == QPoly((half_binomial(k) * (-1) ** k,))
            assert root.coeff(2 * k + 1) == QPoly.zero()
        assert root.coeff(2) == QPoly((F(-1, 2),))
        assert root.coeff(4) == QPoly((F(-1, 8),))
        assert root.coeff(6) == QPoly((F(-1, 16),))

    def test_substituted_variant(self):
        # sqrt(1 - q^2 z^2): same scalars times q^{2k}
        root = S({0: 1, 2: QPoly.monomial(2, -1)}, 10).sqrt()
        for k in range(5):
            want = QPoly.monomial(2 * k, half_binomial(k) * (-1) ** k)
            assert root.coeff(2 * k) == want

    def test_sqrt_of_one(self):
        assert BivariateSeries.one(5).sqrt() == BivariateSeries.one(5)

    def test_domain(self):
        with pytest.raises(SqrtDomainError):
            S({0: 2}, 4).sqrt()
        with pytest.raises(SqrtDomainError):
            S({1: 1}, 4).sqrt()


coeff_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=4
).map(QPoly)


def series_of(order):
    return st.lists(coeff_polys, min_size=order, max_size=order).map(
        lambda cs: BivariateSeries(tuple(cs))
    )


def naive_product(a, b):
    """Independent reference: the Cauchy product as a plain double loop."""
    z = min(a.order, b.order)
    out = [QPoly.zero()] * z
    for i in range(z):
        for j in range(z - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return BivariateSeries(tuple(out))


class TestProperties:
    @settings(max_examples=40)
    @given(series_of(5), series_of(5), series_of(5))
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @settings(max_examples=40)
    @given(st.integers(1, 7).flatmap(series_of), st.integers(1, 7).flatmap(series_of))
    def test_mul_matches_naive_double_loop(self, a, b):
        assert a * b == naive_product(a, b)
        assert b * a == naive_product(b, a)

    @settings(max_examples=40)
    @given(series_of(6))
    def test_sqrt_squares_back(self, s):
        # force an admissible constant term, keep the rest arbitrary
        s = BivariateSeries((QPoly.one(),) + s.coeffs[1:])
        root = s.sqrt()
        assert root * root == s
        assert root.coeff(0) == QPoly.one()


BUILDERS = [pgf_series_even, pgf_series_odd, pgf_series_odd_ratio,
            pgf_series, pgf_series_ratio, nonneg_series]


class TestOrderDomain:
    @pytest.mark.parametrize("order", [0, -1, -2, -3, -4, -50])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_order_below_one(self, builder, order):
        with pytest.raises(DomainError, match="^order must be at least 1$"):
            builder(order)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_each_order_is_exactly_a_prefix(self, builder):
        # a builder expands to the order it returns; a coefficient never depends on it
        longest = builder(40).coeffs
        for k in range(1, 41):
            assert builder(k).coeffs == longest[:k]


class TestEvenExpansion:
    SERIES = pgf_series_even(12)

    def test_low_coefficients(self):
        assert self.SERIES.coeff(0) == QPoly.one()
        assert self.SERIES.coeff(2) == QPoly((F(1, 2), 0, F(1, 2)))
        assert self.SERIES.coeff(4) == QPoly((F(3, 8), 0, F(1, 4), 0, F(3, 8)))

    def test_odd_slots_vanish(self):
        assert all(self.SERIES.coeff(2 * k + 1).is_zero() for k in range(6))

    @pytest.mark.parametrize("n", range(6))
    def test_equals_even_pgf(self, n):
        assert self.SERIES.coeff(2 * n) == pgf(law(2 * n))

    @pytest.mark.parametrize("order", [1, 2, 9, 40])
    def test_equals_product_of_both_square_roots(self, order):
        # both radicals expanded by the series sqrt, q-marked one included
        rz = S({0: 1, 2: -1}, order).sqrt()
        rqz = S({0: 1, 2: QPoly.monomial(2, -1)}, order).sqrt()
        assert pgf_series_even(order) == (rz * rqz).reciprocal()


class TestOddExpansion:
    SERIES = pgf_series_odd(12)

    def test_low_coefficients(self):
        assert self.SERIES.coeff(0).is_zero()
        assert self.SERIES.coeff(1) == QPoly((F(1, 2), F(1, 2)))
        assert self.SERIES.coeff(3) == QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))

    def test_even_slots_vanish(self):
        assert all(self.SERIES.coeff(2 * k).is_zero() for k in range(6))

    @pytest.mark.parametrize("n", range(1, 12, 2))
    def test_ratio_route_agrees(self, n):
        assert pgf_series_odd_ratio(12).coeff(n) == self.SERIES.coeff(n)

    def test_ratio_route_agrees_to_order_32(self):
        assert pgf_series_odd_ratio(32) == pgf_series_odd(32)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_low_orders(self, order):
        odd = pgf_series_odd(order)
        assert odd.order == order
        assert odd == pgf_series_odd_ratio(order)


class TestFullExpansion:
    def test_is_sum_of_parts(self):
        full = pgf_series(10)
        even, odd = pgf_series_even(10), pgf_series_odd(10)
        for n in range(10):
            assert full.coeff(n) == even.coeff(n) + odd.coeff(n)

    def test_matches_recursion_route(self):
        full = pgf_series(10)
        table = dp_pgf_table(9)
        for n in range(10):
            assert full.coeff(n) == table[n]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_low_orders_match_recursion_route(self, order):
        full = pgf_series(order)
        assert full.order == order
        assert list(full.coeffs) == dp_pgf_table(order - 1)

    def test_extract_out_of_range(self):
        with pytest.raises(DomainError):
            pgf_series(4).coeff(4)

    @pytest.mark.parametrize("n", range(16))
    def test_extracted_pgfs_normalize(self, n):
        assert pgf_series(16).coeff(n)(1) == 1


class TestPrintedRatioFinding:
    """The single-ratio printed form is transcription-defective; pin the finding.

    Its expansion is odd in z (every even coefficient vanishes), so it cannot
    reproduce the constant coefficient 1.  The first discrepancy against the
    recursion route sits at index 0, and the first odd coefficient already has
    the wrong value (3(q+1)/8 instead of (q+1)/2).
    """

    def test_first_discrepancy_is_index_zero(self):
        ratio = pgf_series_ratio(8)
        table = dp_pgf_table(7)
        mismatches = [n for n in range(8) if ratio.coeff(n) != table[n]]
        assert mismatches and mismatches[0] == 0

    def test_structurally_odd_in_z(self):
        ratio = pgf_series_ratio(9)
        assert all(ratio.coeff(2 * k).is_zero() for k in range(5))

    def test_frozen_first_odd_coefficient(self):
        assert pgf_series_ratio(4).coeff(1) == QPoly((F(3, 8), F(3, 8)))


class TestNonnegExpansion:
    def test_constant_counts_step_zero(self):
        assert nonneg_series(4).coeff(0) == QPoly.q()

    def test_one_step(self):
        assert nonneg_series(4).coeff(1) == QPoly((0, F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("n", range(11))
    def test_matches_enumeration(self, n):
        series = nonneg_series(11)
        want = pgf(oracle_distribution(n, PositivityRule.NON_NEGATIVE))
        assert series.coeff(n) == want


class TestAgainstClosedForms:
    @pytest.mark.parametrize("m", range(16))
    def test_full_series_vs_laws(self, m):
        series = pgf_series(16)
        assert series.coeff(m) == pgf(law(m))
