from fractions import Fraction

import pytest

from coinwalk.distributions import odd_distribution, pgf
from coinwalk.legendre import (
    even_pgf,
    even_pgf_via_legendre,
    lagrange_series,
    legendre,
    odd_masses_via_partial_sums,
    odd_pgf_via_derivative,
    odd_pgf_via_parity_split,
    odd_pgf_via_ratio,
    odd_pgf_via_three_term,
)
from coinwalk.qpoly import QPoly
from coinwalk.series import BivariateSeries

F = Fraction


class TestLegendrePolynomials:
    def test_first_few(self):
        assert legendre(0) == QPoly.one()
        assert legendre(1) == QPoly((0, 1))
        assert legendre(2) == QPoly((F(-1, 2), 0, F(3, 2)))

    @pytest.mark.parametrize("n", range(21))
    def test_normalization(self, n):
        assert legendre(n)(1) == 1

    def test_matches_three_term_recurrence(self):
        # reference for the explicit form: (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1}
        prev, cur = QPoly.one(), QPoly.q()
        assert legendre(0) == prev
        for m in range(1, 41):
            assert legendre(m) == cur
            prev, cur = cur, (cur.shift(1).scale(2 * m + 1) - prev.scale(m)).scale(F(1, m + 1))

    @pytest.mark.parametrize("n", range(21))
    def test_parity(self, n):
        p = legendre(n)
        flipped = QPoly(tuple(c * (-1) ** i for i, c in enumerate(p.coeffs)))
        assert flipped == (p if n % 2 == 0 else -p)


class TestEvenPgf:
    def test_examples(self):
        assert even_pgf(0) == QPoly.one()
        assert even_pgf(1) == QPoly((F(1, 2), 0, F(1, 2)))
        assert even_pgf(2) == QPoly((F(3, 8), 0, F(1, 4), 0, F(3, 8)))

    @pytest.mark.parametrize("n", range(31))
    def test_two_route_agreement(self, n):
        assert even_pgf_via_legendre(n) == even_pgf(n)


class TestOddPgfRoutes:
    def test_trivial(self):
        half = QPoly((F(1, 2), F(1, 2)))
        assert odd_pgf_via_ratio(0) == half
        assert odd_pgf_via_derivative(0) == half
        assert odd_pgf_via_three_term(0) == half
        assert odd_pgf_via_parity_split(0) == half

    def test_ratio_route_example(self):
        assert odd_pgf_via_ratio(1) == QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))

    @pytest.mark.parametrize("n", range(31))
    def test_four_way_agreement(self, n):
        base = odd_pgf_via_ratio(n)
        assert odd_pgf_via_derivative(n) == base
        assert odd_pgf_via_three_term(n) == base
        assert odd_pgf_via_parity_split(n) == base

    @pytest.mark.parametrize("n", range(31))
    def test_normalization(self, n):
        assert odd_pgf_via_ratio(n)(1) == 1

    @pytest.mark.parametrize("n", range(31))
    def test_parity_split_structure(self, n):
        # the even/odd q-parts of the PGF are the two exact quotients
        one_minus_q2 = QPoly((1, 0, -1))
        p = odd_pgf_via_ratio(n)
        even_want = (even_pgf(n + 1) - even_pgf(n).shift(2)).divide_exact(one_minus_q2)
        odd_want = (even_pgf(n) - even_pgf(n + 1)).shift(1).divide_exact(one_minus_q2)
        assert p.even_part() == even_want
        assert p.odd_part() == odd_want


class TestPartialSums:
    def test_examples(self):
        assert odd_masses_via_partial_sums(0) == (F(1, 2), F(1, 2))
        assert odd_masses_via_partial_sums(1) == (F(3, 8), F(1, 8), F(1, 8), F(3, 8))

    @pytest.mark.parametrize("n", range(31))
    def test_sums_to_one(self, n):
        assert sum(odd_masses_via_partial_sums(n)) == 1

    @pytest.mark.parametrize("n", range(31))
    def test_matches_law_and_ratio_route(self, n):
        masses = odd_masses_via_partial_sums(n)
        assert masses == odd_distribution(n).mass
        assert QPoly(masses) == odd_pgf_via_ratio(n)


class TestLagrange:
    def test_telescoping_case(self):
        assert lagrange_series(1, 0, 6) == (1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("a,b", [
        (F(5, 4), F(3, 8)),
        (F(13, 12), F(5, 24)),
        (F(5, 3), F(2, 3)),
    ])
    def test_legendre_specialization(self, a, b):
        assert a * a - 4 * b * b == 1
        coeffs = lagrange_series(a, b, 21)
        for m in range(21):
            assert coeffs[m] == legendre(m)(a)

    def test_against_series_engine(self):
        # 1/sqrt(1 - 2z - 3z^2) for a = b = 1, expanded independently
        direct = BivariateSeries.from_terms({0: 1, 1: -2, 2: -3}, 12).sqrt().reciprocal()
        got = lagrange_series(1, 1, 12)
        for m in range(12):
            assert direct.coeff(m) == QPoly((got[m],))

    def test_short_orders(self):
        assert lagrange_series(7, 2, 0) == ()
        assert lagrange_series(7, 2, 1) == (1,)
        assert lagrange_series(F(2, 3), 1, 2) == (1, F(2, 3))
