from fractions import Fraction
from itertools import accumulate

import pytest

from coinwalk.distributions import law, pgf
from coinwalk.errors import InexactDivision
from coinwalk.legendre import (
    lagrange_series,
    legendre,
    legendre_pgf_table,
    odd_pgf_via_derivative,
    odd_pgf_via_parity_split,
    odd_pgf_via_partial_sums,
    odd_pgf_via_ratio,
    odd_pgf_via_three_term,
)
from coinwalk.qpoly import QPoly, binomial
from coinwalk.series import BivariateSeries

F = Fraction


@pytest.fixture(scope="module")
def legendre_table():
    return legendre_pgf_table(30)


def evens(n):
    """E_n, E_{n+1}, E_{n+2}: the even laws an odd identity is handed."""
    return [pgf(law(2 * k)) for k in (n, n + 1, n + 2)]


def parity_part(p, parity):
    """The terms of p whose q-degree has the given parity, exponents kept."""
    return QPoly(c if i % 2 == parity else 0 for i, c in enumerate(p.coeffs))


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
        assert pgf(law(0)) == QPoly.one()
        assert pgf(law(2)) == QPoly((F(1, 2), 0, F(1, 2)))
        assert pgf(law(4)) == QPoly((F(3, 8), 0, F(1, 4), 0, F(3, 8)))

    @pytest.mark.parametrize("n", range(31))
    def test_two_route_agreement(self, legendre_table, n):
        assert legendre_table[n] == pgf(law(2 * n))

    @pytest.mark.parametrize("n", range(21))
    def test_table_matches_explicit_sum_in_q(self, legendre_table, n):
        # reference: with P_n = sum_j a_j x^j / d on its integer numerators,
        # q^n P_n((q^2+1)/(2q)) = sum_j a_j (q^2+1)^j (2q)^{n-j} / (2^n d), summed by
        # homogeneous Horner, j = n down to 0: acc (q^2+1) is a shifted add, then
        # a_j 2^{n-j} joins the q^{n-j} slot
        nums, den = legendre(n).numerators
        acc = [nums[n]]
        for j in range(n - 1, -1, -1):
            acc = [x + y for x, y in zip(acc + [0, 0], [0, 0] + acc)]
            acc[n - j] += nums[j] << (n - j)
        assert legendre_table[n] == QPoly(F(c, den << n) for c in acc)

    def test_table_is_lagrange_series_at_polynomial_a_b(self):
        a, b = QPoly((F(1, 2), 0, F(1, 2))), QPoly((F(1, 4), 0, F(-1, 4)))
        assert a * a - 4 * b * b == QPoly.monomial(2)
        coeffs = lagrange_series(a, b, 21)
        assert all(type(c) is QPoly for c in coeffs)
        assert list(coeffs) == legendre_pgf_table(20)
        assert legendre_pgf_table(0) == [QPoly.one()]

    def test_lagrange_series_on_constant_polynomials_matches_scalars(self):
        a, b = F(5, 4), F(3, 8)
        got = lagrange_series(QPoly((a,)), QPoly((b,)), 21)
        assert all(type(c) is QPoly for c in got)
        assert got == tuple(QPoly((c,)) for c in lagrange_series(a, b, 21))


class TestOddPgfRoutes:
    def test_trivial(self):
        half = QPoly((F(1, 2), F(1, 2)))
        assert odd_pgf_via_ratio(0, *evens(0)) == half
        assert odd_pgf_via_derivative(0, *evens(0)) == half
        assert odd_pgf_via_three_term(0, *evens(0)) == half
        assert odd_pgf_via_parity_split(0, *evens(0)) == half

    def test_ratio_route_example(self):
        assert odd_pgf_via_ratio(1, *evens(1)) == QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))

    @pytest.mark.parametrize("n", range(31))
    def test_four_way_agreement(self, n):
        base = odd_pgf_via_ratio(n, *evens(n))
        assert odd_pgf_via_derivative(n, *evens(n)) == base
        assert odd_pgf_via_three_term(n, *evens(n)) == base
        assert odd_pgf_via_parity_split(n, *evens(n)) == base

    @pytest.mark.parametrize("n", range(31))
    def test_normalization(self, n):
        assert odd_pgf_via_ratio(n, *evens(n))(1) == 1

    @pytest.mark.parametrize("n", range(31))
    def test_parity_split_structure(self, n):
        # the even/odd q-parts of the PGF are the two exact quotients
        one_minus_q2 = QPoly((1, 0, -1))
        p = odd_pgf_via_ratio(n, *evens(n))
        even_want = (pgf(law(2 * n + 2)) - pgf(law(2 * n)).shift(2)).divide_exact(one_minus_q2)
        odd_want = (pgf(law(2 * n)) - pgf(law(2 * n + 2))).shift(1).divide_exact(one_minus_q2)
        assert parity_part(p, 0) == even_want
        assert parity_part(p, 1) == odd_want


class TestPartialSums:
    def test_examples(self):
        assert odd_pgf_via_partial_sums(0, *evens(0)).coeffs == (F(1, 2), F(1, 2))
        assert odd_pgf_via_partial_sums(1, *evens(1)).coeffs == (F(3, 8), F(1, 8), F(1, 8), F(3, 8))

    @pytest.mark.parametrize("n", range(31))
    def test_sums_to_one(self, n):
        assert sum(odd_pgf_via_partial_sums(n, *evens(n)).coeffs) == 1

    @pytest.mark.parametrize("n", range(41))
    def test_integer_sums_match_fraction_sums(self, n):
        # the Fraction prefix sums the integer numerators replaced
        lo, hi = (tuple(accumulate(pgf(law(2 * k)).coeffs)) for k in (n, n + 1))
        want = []
        for i in range(n + 1):
            want += [hi[2 * i] - (lo[2 * i - 1] if i else 0), lo[2 * i] - hi[2 * i]]
        assert odd_pgf_via_partial_sums(n, *evens(n)).coeffs == tuple(want)
        assert all(type(c) is F for c in odd_pgf_via_partial_sums(n, *evens(n)).coeffs)
        assert odd_pgf_via_partial_sums(n, *evens(n)) == QPoly(want)

    @pytest.mark.parametrize("n", range(31))
    def test_matches_law_and_ratio_route(self, n):
        masses = odd_pgf_via_partial_sums(n, *evens(n)).coeffs
        assert masses == law(2 * n + 1).mass
        assert QPoly(masses) == odd_pgf_via_ratio(n, *evens(n))


#: each odd identity, and the even laws it reads as indices into (E_n, E_{n+1}, E_{n+2})
READS = [
    (odd_pgf_via_ratio, (0, 1)),
    (odd_pgf_via_derivative, (1,)),
    (odd_pgf_via_three_term, (0, 2)),
    (odd_pgf_via_parity_split, (0, 1)),
    (odd_pgf_via_partial_sums, (0, 1)),
]


class TestPerturbedEvenLaws:
    # mass moved from q^0 to q^2 (total kept), and mass moved from q^1 to q^0
    @pytest.mark.parametrize("delta", [QPoly((-1, 0, 1)), QPoly((1, -1))], ids=["q2-1", "1-q"])
    @pytest.mark.parametrize("identity,reads", READS, ids=[f.__name__ for f, _ in READS])
    @pytest.mark.parametrize("n", range(11))
    def test_every_read_law_is_checked(self, n, identity, reads, delta):
        want = pgf(law(2 * n + 1))
        for i in reads:
            e = evens(n)
            e[i] = e[i] + delta.scale(F(1, 4 ** (n + 2)))
            try:
                got = identity(n, *e)
            except InexactDivision:
                continue
            assert got != want, f"E_{n + i} moved unseen"


class TestDerivativeBlindDirection:
    @pytest.mark.parametrize("n", range(6))
    def test_kernel_of_the_derivative_form(self, n):
        # c (1-q)^{2n+2} solves E + (1-q) E' / (2(n+1)) = 0: the derivative form
        # cannot see E_{n+1} moved along it, the ratio form divides it loudly
        e_n, e_n1, e_n2 = evens(n)
        blind = QPoly((-1) ** j * binomial(2 * n + 2, j) for j in range(2 * n + 3))
        moved = e_n1 + blind.scale(F(1, 4 ** (n + 1)))
        assert moved != e_n1
        assert odd_pgf_via_derivative(n, e_n, moved, e_n2) == pgf(law(2 * n + 1))
        with pytest.raises(InexactDivision):
            odd_pgf_via_ratio(n, e_n, moved, e_n2)


class TestPartialSumsBlindDirection:
    @pytest.mark.parametrize("n", range(6))
    def test_unread_tail_of_the_higher_law(self, n):
        # partial sums read E_{n+1} only to q^{2n}: mass moved from q^{2n+1} to
        # q^{2n+2} goes unseen, the ratio and parity-split forms divide it loudly
        e_n, e_n1, e_n2 = evens(n)
        tail = QPoly.monomial(2 * n + 2) - QPoly.monomial(2 * n + 1)
        moved = e_n1 + tail.scale(F(1, 4 ** (n + 1)))
        assert moved != e_n1
        assert odd_pgf_via_partial_sums(n, e_n, moved, e_n2) == pgf(law(2 * n + 1))
        for identity in (odd_pgf_via_ratio, odd_pgf_via_parity_split):
            with pytest.raises(InexactDivision):
                identity(n, e_n, moved, e_n2)


class TestPartialSumsShortLaws:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("short", [0, 1], ids=["E_n", "E_n+1"])
    def test_coefficients_past_the_degree_read_as_zero(self, n, short):
        # a law of degree below 2n, here the constant 1, as QPoly.coeff reads it;
        # (q E_n + E_{n+1}) / (q+1) still divides exactly, so the ratio form is the check
        e = evens(n)
        e[short] = QPoly.one()
        assert odd_pgf_via_partial_sums(n, *e) == odd_pgf_via_ratio(n, *e)
        assert odd_pgf_via_partial_sums(n, *e) == odd_pgf_via_parity_split(n, *e)


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
