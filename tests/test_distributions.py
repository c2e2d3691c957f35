import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

from coinwalk import distributions
from coinwalk.distributions import (
    Distribution,
    _counts,
    _law_counts,
    _weights,
    cdf,
    conditional_positive,
    law,
    pgf,
)
from coinwalk.errors import DomainError
from coinwalk.qpoly import QPoly

F = Fraction


class TestDistributionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution.from_counts([2, 1], 4)  # does not sum to 1
        with pytest.raises(ValueError):
            Distribution.from_counts([3, -1], 2)  # negative mass
        with pytest.raises(ValueError):
            Distribution(0, QPoly((F(1, 2), F(1, 2))))  # mass beyond the length
        assert Distribution(2, QPoly((1,))).mass == (F(1), F(0), F(0))  # keeps three slots

    def test_repr_eq_hash(self):
        d = Distribution.from_counts([1, 0, 1], 2)
        assert repr(d) == ("Distribution(length=2, _pgf=QPoly([Fraction(1, 2), Fraction(0, 1), "
                           "Fraction(1, 2)]))")
        assert repr(Distribution.from_counts([2, 0, 0], 2)) == (
            "Distribution(length=2, _pgf=QPoly([Fraction(1, 1)]))")
        assert d == Distribution(2, QPoly((F(1, 2), 0, F(1, 2)))) == law(2)
        assert hash(d) == hash(law(2)) == hash((2, pgf(d)))
        assert d != Distribution.from_counts([1, 0, 1, 0], 2)  # same PGF, one more slot

    def test_indexing(self):
        d = law(2)
        assert d[0] == F(1, 2) and d[2] == F(1, 2)
        assert d.length == 2


class TestEvenLaw:
    def test_zero_tosses(self):
        assert law(0).mass == (F(1),)

    def test_two_tosses(self):
        assert law(2).mass == (F(1, 2), F(0), F(1, 2))

    def test_four_tosses(self):
        assert law(4).mass == (F(3, 8), 0, F(1, 4), 0, F(3, 8))


class TestOddLaw:
    def test_one_toss(self):
        assert law(1).mass == (F(1, 2), F(1, 2))

    def test_three_tosses(self):
        assert law(3).mass == (F(3, 8), F(1, 8), F(1, 8), F(3, 8))

    def test_five_tosses_top_mass(self):
        assert law(5)[5] == F(5, 16)


class TestPgfCdf:
    def test_pgf_examples(self):
        assert pgf(law(2)) == QPoly((F(1, 2), 0, F(1, 2)))
        assert pgf(law(3)) == QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))
        assert pgf(law(0)) == QPoly.one()

    def test_cdf_examples(self):
        assert cdf(law(3)) == (F(3, 8), F(1, 2), F(5, 8), F(1))
        assert cdf(law(0)) == (F(1),)
        assert cdf(law(2)) == (F(1, 2), F(1, 2), F(1))


class TestConditional:
    def test_values(self):
        assert conditional_positive(1, 1) == 1
        assert conditional_positive(2, 0) == 0
        assert conditional_positive(2, 1) == F(1, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            conditional_positive(0, 0)
        with pytest.raises(DomainError):
            conditional_positive(2, 3)
        with pytest.raises(DomainError):
            conditional_positive(2, -1)


class TestInvariants:
    @pytest.mark.parametrize("m", range(65))
    def test_normalization_and_symmetry(self, m):
        dist = law(m)
        assert sum(dist.mass) == 1
        for j in range(m + 1):
            assert dist[j] == dist[m - j]

    @pytest.mark.parametrize("n", range(33))
    def test_even_index_half_of_odd_law(self, n):
        # each parity class of the odd-length count carries exactly half the mass
        dist = law(2 * n + 1)
        assert sum(dist[2 * r] for r in range(n + 1)) == F(1, 2)

    @pytest.mark.parametrize("n", range(33))
    def test_odd_law_full_support(self, n):
        assert all(p > 0 for p in law(2 * n + 1).mass)

    @pytest.mark.parametrize("n", range(33))
    def test_pgf_at_one(self, n):
        assert pgf(law(2 * n + 1))(1) == 1
        assert pgf(law(2 * n))(1) == 1


class TestLaw:
    @pytest.mark.parametrize("m", range(9))
    def test_dispatches_on_parity(self, m):
        # even m: the Chung-Feller atoms C(2r,r) C(2K-2r,K-r) / 4^K at 2r;
        # odd m: each atom of law(m + 1) at 2r split r : (K-r) onto 2r-1 and 2r
        k = (m + 1) // 2
        atom = [F(comb(2 * r, r) * comb(2 * k - 2 * r, k - r), 4**k) for r in range(k + 1)]
        want = [F(0)] * (m + 1)
        if m % 2 == 0:
            want[::2] = atom
        else:
            want[::2] = [atom[r] * (k - r) / k for r in range(k)]
            want[1::2] = [atom[r] * r / k for r in range(1, k + 1)]
        assert law(m).mass == tuple(want)

    @pytest.mark.parametrize("m", [-1, -2])
    def test_negative_length(self, m):
        with pytest.raises(DomainError):
            law(m)

    @pytest.mark.parametrize("k", [*range(40), 500])
    def test_weights_are_the_products_of_central_binomials(self, k):
        assert list(_weights(k)) == [comb(2 * r, r) * comb(2 * k - 2 * r, k - r)
                                     for r in range(k + 1)]

    @pytest.mark.parametrize("m", [2000, 2001])
    def test_counts_are_held_once_while_built(self, m):
        # the counts go straight into the PGF's list and are reduced there:
        # no weight list, no defensive copy, no reduced copy beside them
        law(m)  # warm any lazily built state outside the measurement
        tracemalloc.start()
        try:
            dist = law(m)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.length == m
        assert peak <= 1.5 * held

    @pytest.mark.parametrize("m", [*range(12), 2000, 2001])
    def test_mirror_atoms_share_one_count(self, m):
        # P(N = j) = P(N = m - j): the count is computed once and both slots hold it
        nums, _ = pgf(law(m)).numerators
        assert len(nums) == m + 1
        for j in range(m + 1):
            assert nums[j] is nums[m - j]

    @pytest.mark.parametrize("m", [2000, 2001])
    def test_mirror_counts_are_held_once(self, m):
        # the law holds about half of what its slots would take as distinct ints
        law(m)
        tracemalloc.start()
        try:
            dist = law(m)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nums, _ = pgf(dist).numerators
        assert held <= 0.6 * sum(sys.getsizeof(c) for c in nums)


class TestLawCounts:
    @pytest.mark.parametrize("cumulative", [False, True], ids=["mass", "cdf"])
    def test_stream_is_the_law(self, cumulative):
        # slot by slot, both parities, against the law built from the same stream's half
        for m in range(301):
            nums, den = _law_counts(m, cumulative)
            want = cdf(law(m)) if cumulative else law(m).mass
            assert tuple(F(c, den) for c in nums) == want, m

    @pytest.mark.parametrize("m", [*range(12), 400, 401])
    def test_law_forms_half_the_weights(self, monkeypatch, m):
        # law reads the stream only to slot m // 2, so only w_0..w_{K//2} are formed
        formed = []

        def counted(k):
            for w in _weights(k):
                formed.append(w)
                yield w

        monkeypatch.setattr(distributions, "_weights", counted)
        law(m)
        assert len(formed) == (m + 1) // 2 // 2 + 1

    @pytest.mark.parametrize("m", [5, 6])
    @pytest.mark.parametrize("weights,message", [
        (lambda k: iter([1] * (k + 1)), "masses sum to"),
        (lambda k: (-w if r == 2 else w for r, w in enumerate(_weights(k))),
         "negative probability mass"),
    ], ids=["sum", "negative"])
    def test_stream_checks_the_law(self, monkeypatch, m, weights, message):
        # as Distribution checks a law: a negative count when it is read, the sum after the last
        monkeypatch.setattr(distributions, "_weights", weights)
        nums, _ = _law_counts(m)
        read = []
        with pytest.raises(DomainError, match=message):
            for c in nums:
                read.append(c)
        # every slot, or the slots before w_2's first one
        assert len(read) == (m + 1 if message == "masses sum to" else 4 - m % 2)


def printed_law(m):
    """P(N_m = j), j = 0..m, straight from the printed formula in u_k = C(2k, k) / 4^k."""
    n = m // 2

    def u(k):
        return F(comb(2 * k, k), 4**k)

    if m % 2 == 0:
        mass = [F(0)] * (m + 1)
        for r in range(n + 1):
            mass[2 * r] = u(r) * u(n - r)
        return tuple(mass)
    mass = [F(0)] * (m + 1)
    for r in range(n + 1):
        mass[2 * r] = u(r) * u(n + 1 - r) * F(n - r + 1, n + 1)
    for r in range(1, n + 2):
        mass[2 * r - 1] = u(r) * u(n + 1 - r) * F(r, n + 1)
    return tuple(mass)


class TestIntegerLaws:
    # 255..2049: the half's gcd with the denominator takes different powers of two and odd factors
    @pytest.mark.parametrize("m", [*range(131), 255, 256, 257, 511, 512, 513, 1000, 1001,
                                   2047, 2048, 2049])
    def test_matches_printed_formula(self, m):
        dist = law(m)
        assert dist.length == m
        assert dist.mass == printed_law(m)

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40, 41, 1001])
    def test_pgf_is_the_law_as_polynomial(self, m):
        dist = law(m)
        assert pgf(dist) == QPoly(dist.mass)
        assert pgf(dist) is pgf(dist)  # stored, not rebuilt

    @pytest.mark.parametrize("m", [0, 5, 40, 41])
    def test_cdf_is_prefix_sums(self, m):
        assert cdf(law(m)) == tuple(accumulate(printed_law(m)))

    def test_from_counts(self):
        assert Distribution.from_counts([3, 1, 1, 3], 8) == law(3)
        assert Distribution.from_counts([0, 1], 1) == Distribution(1, QPoly((0, 1)))

    def test_trailing_zero_slots(self):
        d = Distribution.from_counts([2, 0, 0], 2)
        assert d.mass == (F(1), F(0), F(0))
        assert cdf(d) == (F(1),) * 3
        assert d[2] == d[-1] == 0 and d[-3] == 1

    @pytest.mark.parametrize("j", [3, -4])
    def test_index_outside_support(self, j):
        with pytest.raises(IndexError):
            law(2)[j]

    @pytest.mark.parametrize("counts,den", [
        ([1, 1], 3),  # sums to 2, not 3
        ([1, 2, 1], 3),
        ([3, -1], 2),  # negative count
        ([-1, 0, 2], 1),
        ([-1, -1], -2),  # negative counts over a negative denominator
        ([1], 0),
    ])
    def test_validation_on_counts(self, counts, den):
        with pytest.raises(ValueError):
            Distribution.from_counts(counts, den)


class TestCounts:
    @pytest.mark.parametrize("dist", [
        Distribution(2, QPoly((1,))), Distribution.from_counts([0, 2, 0], 2),
        law(0), law(1), law(7), law(40), law(41),
    ], ids=lambda d: f"length{d.length}")
    def test_mass_and_cdf_are_the_counts(self, dist):
        nums, den = _counts(dist)
        sums, sums_den = _counts(dist, cumulative=True)
        nums, sums = list(nums), list(sums)  # each is read once, as the writer reads it
        assert sums_den == den and len(nums) == len(sums) == dist.length + 1
        assert all(type(c) is int for c in nums + sums)
        assert sums == list(accumulate(nums)) and sums[-1] == den
        assert dist.mass == tuple(F(c, den) for c in nums)
        assert cdf(dist) == tuple(accumulate(dist.mass))
        assert all(type(p) is F for p in dist.mass + cdf(dist))

    def test_padded_slots(self):
        d = Distribution(2, QPoly((1,)))
        for cumulative, want in ((False, [1, 0, 0]), (True, [1, 1, 1])):
            nums, den = _counts(d, cumulative)
            assert (list(nums), den) == (want, 1)
        assert d.mass == (F(1), F(0), F(0)) and cdf(d) == (F(1),) * 3
