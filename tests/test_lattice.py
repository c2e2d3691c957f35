import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from coinwalk.distributions import law, pgf
from coinwalk.errors import DomainError
from coinwalk.lattice import dp_pgf, dp_pgf_table
from coinwalk.oracle import PositivityRule, oracle_distribution
from coinwalk.qpoly import QPoly

F = Fraction

TABLE = dp_pgf_table(40)

# Reference for the packed sweep: the same recursion on QPoly slices p(n, x),
# scaled by 1/2 at every step, with the closed boundary outside -n..n.
_HALF = Fraction(1, 2)
_HALF_Q = QPoly((0, _HALF))  # q/2


@dataclass(frozen=True)
class LatticeSlice:
    """Values p(n, x) for x in -n..n; index i holds x = i - n."""

    n: int
    values: tuple[QPoly, ...]

    def __post_init__(self):
        if len(self.values) != 2 * self.n + 1:
            raise ValueError("slice must cover -n..n")

    def value(self, x: int) -> QPoly:
        """p(n, x), using the forced closed form outside the window."""
        if x > self.n:
            return QPoly.monomial(self.n)
        if x < -self.n:
            return QPoly.one()
        return self.values[x + self.n]


def initial_slice() -> LatticeSlice:
    """Time 0: a count over zero steps is 0 wherever the walk starts."""
    return LatticeSlice(0, (QPoly.one(),))


def dp_step(prev: LatticeSlice) -> LatticeSlice:
    """Advance one time step, widening the window by one site on each side."""
    n = prev.n + 1
    out = []
    for x in range(-n, n + 1):
        up = prev.value(x + 1)
        down = prev.value(x - 1)
        if x > 0:
            out.append((up + down) * _HALF_Q)
        elif x == 0:
            out.append(up * _HALF_Q + down.scale(_HALF))
        else:
            out.append((up + down).scale(_HALF))
    return LatticeSlice(n, tuple(out))


class TestReference:
    def test_table_matches_slice_recursion(self):
        # every n_max has its own slot width and diamond window
        cur, reference = initial_slice(), []
        for _ in range(41):
            reference.append(cur.value(0))
            cur = dp_step(cur)
        for n_max in range(41):
            assert dp_pgf_table(n_max) == reference[:n_max + 1], n_max

    @pytest.fixture(scope="class")
    def table_257(self):
        return dp_pgf_table(257)

    @pytest.mark.parametrize("m", [255, 256, 257])
    def test_matches_law_at_256(self, table_257, m):
        assert table_257[m] == pgf(law(m))


def _tie_rule_count(x: int, steps) -> int:
    """Positive steps of the walk x, x + s_1, ...: a step counts when it ends
    above 0, or ends at 0 coming from above."""
    count = 0
    for s in steps:
        count += x + s > 0 or x > 0
        x += s
    return count


def _count_law(x: int, n: int) -> Counter:
    """How many of the 2^n paths from x have each positive-step count."""
    return Counter(_tie_rule_count(x, steps) for steps in itertools.product((-1, 1), repeat=n))


class TestReflection:
    # the packed sweep reads P(n, x) for x > 0 off P(n, -x); check that by brute force
    @pytest.mark.parametrize("n", range(11))
    def test_negated_start_mirrors_the_count(self, n):
        laws = {x: _count_law(x, n) for x in range(-(n + 1), n + 2)}
        for x, counts in laws.items():
            assert Counter({n - c: k for c, k in counts.items()}) == laws[-x], x


class TestStep:
    def test_first_step(self):
        s1 = dp_step(initial_slice())
        assert s1.value(0) == QPoly((F(1, 2), F(1, 2)))
        assert s1.value(1) == QPoly((0, 1))  # both moves from 1 stay positive
        assert s1.value(-1) == QPoly.one()

    def test_second_step(self):
        assert dp_pgf(2) == QPoly((F(1, 2), 0, F(1, 2)))

    def test_third_step(self):
        assert dp_pgf(3) == QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))

    def test_boundary_values(self):
        s = LatticeSlice(2, (QPoly.one(),) * 5)
        assert s.value(3) == QPoly.monomial(2)  # forced q^n above the window
        assert s.value(-3) == QPoly.one()

    def test_window_size_enforced(self):
        with pytest.raises(ValueError):
            LatticeSlice(2, (QPoly.one(),))


class TestPgf:
    def test_trivial(self):
        assert dp_pgf(0) == QPoly.one()
        assert dp_pgf(1) == QPoly((F(1, 2), F(1, 2)))

    def test_four_steps(self):
        assert dp_pgf(4) == QPoly((F(3, 8), 0, F(1, 4), 0, F(3, 8)))

    def test_table_matches_single_runs(self):
        for n in range(8):
            assert TABLE[n] == dp_pgf(n)


class TestInvariants:
    @pytest.mark.parametrize("n", range(41))
    def test_pgf_at_one(self, n):
        assert TABLE[n](1) == 1

    @pytest.mark.parametrize("n", range(41))
    def test_matches_closed_form(self, n):
        assert TABLE[n] == pgf(law(n))

    @pytest.mark.parametrize("n", range(13))
    def test_matches_oracle(self, n):
        assert TABLE[n] == pgf(oracle_distribution(n, PositivityRule.CHUNG_FELLER))

    @pytest.mark.parametrize("n", range(41))
    def test_support_structure(self, n):
        # odd lengths have full support; even lengths live on even counts only
        coeffs = TABLE[n].coeffs
        assert len(coeffs) == n + 1
        if n % 2 == 1:
            assert all(c > 0 for c in coeffs)
        else:
            assert all(c > 0 for c in coeffs[::2])
            assert all(c == 0 for c in coeffs[1::2])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_q_degree_bound_on_whole_slice(self, n):
        cur = initial_slice()
        for _ in range(n):
            cur = dp_step(cur)
        for x in range(-n, n + 1):
            p = cur.value(x)
            assert p.degree <= n
            assert p(1) == 1


class TestDomain:
    @pytest.mark.parametrize("call", [dp_pgf, dp_pgf_table])
    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_length(self, call, n):
        # dp_pgf(-1) was the polynomial 1, dp_pgf(-2) an IndexError, dp_pgf_table(-1) [1]
        with pytest.raises(DomainError):
            call(n)
