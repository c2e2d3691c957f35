from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinwalk.distributions import even_distribution, odd_distribution
from coinwalk.errors import CapExceeded, DomainError
from coinwalk.oracle import (
    PositivityRule,
    _count_walks,
    count_positive,
    enumerate_walks,
    oracle_conditional,
    oracle_distribution,
)

F = Fraction
CF = PositivityRule.CHUNG_FELLER
NN = PositivityRule.NON_NEGATIVE


class TestCountPositive:
    # hand-enumerated three-step walks
    CASES = {
        (1, 1, 1): 3,
        (1, 1, -1): 3,
        (1, -1, 1): 3,
        (1, -1, -1): 2,
        (-1, 1, 1): 1,
        (-1, 1, -1): 0,
        (-1, -1, 1): 0,
        (-1, -1, -1): 0,
    }

    @pytest.mark.parametrize("steps,expected", sorted(CASES.items()))
    def test_three_step_walks(self, steps, expected):
        assert count_positive(steps, CF) == expected

    def test_nonneg_counts_step_zero(self):
        assert count_positive((), NN) == 1
        assert count_positive((-1,), NN) == 1
        assert count_positive((1,), NN) == 2


def bit_rows(n):
    return st.tuples(st.just(n), st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                          min_size=1, max_size=6))


class TestCountingKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 200).flatmap(bit_rows), st.sampled_from([CF, NN]))
    def test_matches_per_path_reference(self, walks, rule):
        n, rows = walks
        counts, sums = _count_walks(np.array(rows, dtype=np.uint8).reshape(len(rows), n), rule)
        steps = [[2 * b - 1 for b in row] for row in rows]
        assert counts.tolist() == [count_positive(s, rule) for s in steps]
        assert sums.tolist() == [list(accumulate(s)) for s in steps]

    @pytest.mark.parametrize("rule,expected", [(CF, 40000), (NN, 40001)])
    def test_long_walk_uses_int32_sums(self, rule, expected):
        # 20,000 up, then 20,000 down: every step counts, the last one by the tie rule
        steps = [1] * 20000 + [-1] * 20000
        bits = np.array([[1] * 20000 + [0] * 20000], dtype=np.uint8)
        counts, sums = _count_walks(bits, rule)
        assert sums.dtype == np.int32
        assert counts.tolist() == [count_positive(steps, rule)] == [expected]


class TestEnumerate:
    def test_three_steps(self):
        assert enumerate_walks(3, CF).count_hist == (3, 1, 1, 3, 0)

    def test_empty_walk(self):
        stats = enumerate_walks(0, CF)
        assert stats.count_hist[0] == 1 and sum(stats.count_hist) == 1

    def test_one_step_nonneg(self):
        assert enumerate_walks(1, NN).count_hist == (0, 1, 1)

    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("rule", [CF, NN])
    def test_matches_per_path_reference(self, n, rule):
        # the vectorized histogram must agree with the dumb per-path loop
        hist = [0] * (n + 2)
        for signs in product((1, -1), repeat=n):
            hist[count_positive(signs, rule)] += 1
        assert enumerate_walks(n, rule).count_hist == tuple(hist)

    @pytest.mark.parametrize("n", range(15))
    def test_symmetry(self, n):
        hist = enumerate_walks(n, CF).count_hist
        for j in range(n + 1):
            assert hist[j] == hist[n - j]

    @pytest.mark.parametrize("n", range(15))
    def test_nonneg_slot_zero_empty(self, n):
        assert enumerate_walks(n, NN).count_hist[0] == 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_walks(25, CF)
        with pytest.raises(CapExceeded):
            enumerate_walks(4, CF, cap=3)

    def test_path_ids_limit_length_whatever_the_cap(self, monkeypatch):
        # n = 33 would wrap uint32 path ids; refuse before any path is built
        def no_paths(n, rule):
            raise AssertionError("enumeration started")

        monkeypatch.setattr("coinwalk.oracle._enumerate", no_paths)
        with pytest.raises(DomainError):
            enumerate_walks(33, CF, cap=40)

    def test_joint_bounded_by_hist(self):
        stats = enumerate_walks(8, CF)
        assert all(j <= c for j, c in zip(stats.joint_pos, stats.count_hist))


class TestOracleDistribution:
    def test_examples(self):
        assert oracle_distribution(3, CF).mass == (F(3, 8), F(1, 8), F(1, 8), F(3, 8))
        assert oracle_distribution(2, CF).mass == (F(1, 2), F(0), F(1, 2))
        assert oracle_distribution(0, NN).mass == (F(0), F(1))

    @pytest.mark.parametrize("m", range(15))
    def test_matches_closed_forms(self, m):
        want = even_distribution(m // 2) if m % 2 == 0 else odd_distribution((m - 1) // 2)
        assert oracle_distribution(m, CF) == want


class TestOracleConditional:
    def test_examples(self):
        assert oracle_conditional(1) == (0, 1)
        assert oracle_conditional(2) == (0, F(1, 2), 1)
        assert oracle_conditional(3) == (0, F(1, 3), F(2, 3), 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_r_over_n(self, n):
        assert oracle_conditional(n) == tuple(F(r, n) for r in range(n + 1))
