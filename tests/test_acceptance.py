"""Acceptance gate: every criterion at its stated tolerance, one line each.

Exact criteria tolerate nothing (rational equality); only the statistical
criterion has numeric tolerances.  Shared heavy artifacts (series expansions,
recursion tables) are module-scoped fixtures so criteria measure their own
work, not rebuilds.
"""

import time
from fractions import Fraction

import pytest

from coinwalk.distributions import law, pgf
from coinwalk.lattice import dp_pgf_table
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
from coinwalk.montecarlo import SimConfig, arcsine_sup_distance, simulate, tv_distance
from coinwalk.oracle import PositivityRule, oracle_conditional, oracle_distribution
from coinwalk.qpoly import QPoly
from coinwalk.series import (
    nonneg_series,
    pgf_series,
    pgf_series_even,
    pgf_series_odd,
)
from coinwalk.verify import LEGENDRE_PAIRS

F = Fraction
CF = PositivityRule.CHUNG_FELLER
NN = PositivityRule.NON_NEGATIVE


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def dp_table():
    return dp_pgf_table(32)


@pytest.fixture(scope="module")
def full_series():
    return pgf_series(33)


def test_criterion_1_odd_law_vs_oracle():
    start = time.monotonic()
    for n in range(12):  # m = 2n+1 <= 23
        m = 2 * n + 1
        assert oracle_distribution(m, CF) == law(m), f"m={m}"
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(1, f"odd law equals enumeration for all m=2n+1<=23, exact ({elapsed:.1f}s)")


def test_criterion_2_even_law_vs_oracle():
    for n in range(13):  # m = 2n <= 24
        m = 2 * n
        assert oracle_distribution(m, CF) == law(m), f"m={m}"
    report(2, "even law equals enumeration for all m=2n<=24, exact")


def test_criterion_3_four_route_agreement(dp_table, full_series):
    start = time.monotonic()
    for m in range(33):
        closed = pgf(law(m))
        assert full_series.coeff(m) == dp_table[m] == closed, f"m={m}"
    for m in range(21):
        assert dp_table[m] == pgf(oracle_distribution(m, CF)), f"m={m}"
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, f"series = recursion = closed form for n<=32, = oracle for n<=20 ({elapsed:.1f}s)")


def test_criterion_4_generating_function_anatomy():
    even = pgf_series_even(61)
    odd = pgf_series_odd(62)
    q_plus_1 = QPoly((1, 1))
    legendre_table = legendre_pgf_table(30)
    for n in range(31):
        a_n = pgf(law(2 * n))
        assert even.coeff(2 * n) == a_n == legendre_table[n], f"n={n}"
    for n in range(31):
        want = (pgf(law(2 * n)).shift(1) + pgf(law(2 * n + 2))).divide_exact(q_plus_1)
        assert odd.coeff(2 * n + 1) == want, f"n={n}"
    report(4, "even/odd series coefficients match the Legendre and exact-quotient forms, n<=30")


def test_criterion_5_identity_suite():
    for n in range(31):
        e = [pgf(law(2 * k)) for k in (n, n + 1, n + 2)]  # E_n, E_{n+1}, E_{n+2}
        base = odd_pgf_via_ratio(n, *e)
        assert odd_pgf_via_derivative(n, *e) == base, f"n={n}"
        assert odd_pgf_via_three_term(n, *e) == base, f"n={n}"
        assert odd_pgf_via_parity_split(n, *e) == base, f"n={n}"
        assert odd_pgf_via_partial_sums(n, *e) == base, f"n={n}"
    report(5, "all five expressions for the odd-length PGF agree exactly, n<=30")


def test_criterion_6_conditional_law():
    for n in range(1, 13):
        got = oracle_conditional(n)
        assert got == tuple(F(r, n) for r in range(n + 1)), f"n={n}"
    report(6, "enumerated conditional positive-sum probabilities equal r/n, n<=12")


def test_criterion_7_nonneg_closed_form_vs_oracle():
    series = nonneg_series(21)
    mismatches = []
    for n in range(21):
        got = series.coeff(n)
        want = pgf(oracle_distribution(n, NN))
        if got != want:
            size = max(got.degree, want.degree) + 1
            j = next(i for i in range(size) if got.coeff(i) != want.coeff(i))
            mismatches.append((n, j, got.coeff(j), want.coeff(j)))
    if mismatches:
        n, j, got_c, want_c = mismatches[0]
        pytest.fail(
            "non-negative-count closed form departs from enumeration: "
            f"first discrepancy at z^{n} q^{j}: got {got_c}, expected {want_c}"
        )
    report(7, "corrected-radical closed form matches non-negative-rule enumeration, n<=20")


def test_criterion_8_lagrange_legendre():
    assert lagrange_series(1, 0, 21) == (F(1),) * 21
    for a, b in LEGENDRE_PAIRS:
        assert a * a - 4 * b * b == 1
        coeffs = lagrange_series(a, b, 21)
        for m in range(21):
            assert coeffs[m] == legendre(m)(a), f"a={a}, m={m}"
    report(8, "recurrence coefficients equal Legendre values at three admissible pairs, m<=20")


def test_criterion_9_statistical_limit():
    big = simulate(SimConfig(m=1000, samples=200000, seed=20260810))
    sup = arcsine_sup_distance(big)
    assert sup < 0.05

    small = simulate(SimConfig(m=24, samples=100000, seed=424242))
    tv = tv_distance(small, law(24))
    assert tv < 0.01
    report(9, f"arcsine sup distance {sup:.4f} < 0.05; m=24 TV distance {tv:.4f} < 0.01")
