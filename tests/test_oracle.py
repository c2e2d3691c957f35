import hashlib
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinwalk.distributions import law
from coinwalk import oracle
from coinwalk.errors import CapExceeded
from coinwalk.oracle import (
    PositivityRule,
    _count_walks,
    _widths,
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


def step_bits(rows, n, share, dtype=np.uint8):
    """Step k's bits as a `dtype` column, or as one int where `share` and every row agree."""
    for k in range(n):
        column = {row[k] for row in rows}
        yield column.pop() if share and len(column) == 1 else np.array([row[k] for row in rows], dtype)


def pair_bits(steps, summed=False):
    """The kernel's items for steps 1..n: (b_2j, b_2j+1), j = 0..n // 2, b_0 = b_{n+1} = 0.

    `summed` gives (0, b_2j + b_2j+1), the form a Chung-Feller-only pass takes.
    """
    bits = [0, *steps, 0]
    pairs = list(zip(bits[0::2], bits[1::2]))
    return [(0, x + y) for x, y in pairs] if summed else pairs


class TestCountingKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 200).flatmap(bit_rows), st.booleans())
    def test_matches_per_path_reference(self, walks, share):
        # one pass counts both rules
        n, rows = walks
        (cf, nn), sums = _count_walks(pair_bits(step_bits(rows, n, share)), n, len(rows), (CF, NN))
        steps = [[2 * b - 1 for b in row] for row in rows]
        assert cf.tolist() == [count_positive(s, CF) for s in steps]
        assert nn.tolist() == [count_positive(s, NN) for s in steps]
        assert sums.tolist() == [list(accumulate(s, initial=0))[-1] for s in steps]
        assert sums.dtype == cf.dtype == nn.dtype == (np.int8 if n < 127 else np.int16)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 40).flatmap(bit_rows), st.sampled_from([(CF,), (NN,), (NN, CF)]),
           st.booleans())
    def test_any_rules_tuple(self, walks, rules, share):
        # counts come back in the order the rules were asked for
        n, rows = walks
        counts, _ = _count_walks(pair_bits(step_bits(rows, n, share)), n, len(rows), rules)
        steps = [[2 * b - 1 for b in row] for row in rows]
        assert [c.tolist() for c in counts] == [[count_positive(s, rule) for s in steps]
                                                for rule in rules]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 300).flatmap(bit_rows), st.booleans())
    def test_summed_pairs_count_chung_feller(self, walks, share):
        # a pass without the non-negative rule reads u only at odd steps, so
        # each pair may come as (0, b_2j + b_2j+1)
        n, rows = walks
        steps = list(step_bits(rows, n, share, _widths(n)[1]))
        (cf,), sums = _count_walks(pair_bits(steps, summed=True), n, len(rows), (CF,))
        (whole,), whole_sums = _count_walks(pair_bits(steps), n, len(rows), (CF,))
        walks_steps = [[2 * b - 1 for b in row] for row in rows]
        assert cf.tolist() == whole.tolist() == [count_positive(s, CF) for s in walks_steps]
        assert sums.tolist() == whole_sums.tolist()

    @pytest.mark.parametrize("n", [126, 127, 128, 252, 253, 254, 255, 256, 381, 508, 509])
    @pytest.mark.parametrize("kernel_width", [False, True], ids=["uint8", "kernel-width"])
    def test_flush_boundaries(self, n, kernel_width):
        # an all-up walk adds a flag at both compares of every pair, so 128
        # pairs between flushes would wrap the int8 tallies; the flush falls
        # after pairs 127 and 254, steps 253 and 507
        rows = [[1] * n, [0] * n, [(k + 1) % 2 for k in range(n)], [k % 2 for k in range(n)]]
        dtype = _widths(n)[1] if kernel_width else np.uint8
        pairs = pair_bits(step_bits(rows, n, False, dtype))
        (cf, nn), sums = _count_walks(pairs, n, len(rows), (CF, NN))
        steps = [[2 * b - 1 for b in row] for row in rows]
        assert cf.tolist() == [count_positive(s, CF) for s in steps]
        assert nn.tolist() == [count_positive(s, NN) for s in steps]
        assert sums.tolist() == [sum(s) for s in steps]
        assert cf[0] == n and nn[0] == n + 1

    @pytest.mark.parametrize("rule,expected", [(CF, 40000), (NN, 40001)])
    def test_long_walk_uses_int32_sums(self, rule, expected):
        # 20,000 up, then 20,000 down: every step counts, the last one by the tie rule
        steps = [1] * 20000 + [-1] * 20000
        bits = [[1] * 20000 + [0] * 20000]
        pairs = pair_bits(step_bits(bits, 40000, False))
        (counts,), sums = _count_walks(pairs, 40000, 1, (rule,))
        assert sums.dtype == np.int32
        assert sums.tolist() == [0]
        assert counts.tolist() == [count_positive(steps, rule)] == [expected]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 160).flatmap(bit_rows), st.sampled_from([(CF,), (NN,), (CF, NN)]),
           st.booleans())
    def test_resumed_pass_equals_one_pass(self, walks, rules, share):
        # a state advanced over any first i <= n // 2 + 1 pairs, then over the
        # rest, reads what one pass over all the pairs does, types and int8
        # flushes included
        n, rows = walks
        pairs = pair_bits(step_bits(rows, n, share))
        whole, whole_sums = _count_walks(pairs, n, len(rows), rules)
        for i in range(len(pairs) + 1):
            state = oracle._WalkState(n, len(rows), rules).advance(pairs[:i])
            assert state.pairs == i
            assert state.up.tolist() == [sum(row[:max(2 * i - 1, 0)]) for row in rows]
            assert state.advance(pairs[i:]).pairs == n // 2 + 1
            counts, sums = state.read(rules)
            assert [c.tolist() for c in counts] == [c.tolist() for c in whole]
            assert sums.tolist() == whole_sums.tolist()
            assert [c.dtype for c in counts] == [c.dtype for c in whole]
            assert sums.dtype == whole_sums.dtype

    @pytest.mark.parametrize("n", [0, 1, 5, 12, 13, 16, 17, 18, 21])
    def test_table_steps_once_then_one_resumed_pass_per_block(self, monkeypatch, n):
        # one loop for every n: the pairs the table's min(n, 16) steps fill
        # alone are advanced once, then each block advances by the rest and is
        # read; up to 16 steps, the one block reads the prefix state itself.
        # Every state is a grid of the block's walks, at most 4096 to a row
        calls = []

        class Recording(oracle._WalkState):
            def __init__(self, length, shape, rules):
                calls.append(("new", length, shape, rules))
                super().__init__(length, shape, rules)

            def advance(self, pairs):
                pairs = list(pairs)
                calls.append(("advance", self.pairs, len(pairs), self.up.shape))
                return super().advance(pairs)

            def read(self, rules):
                calls.append(("read", self.pairs, rules))
                return super().read(rules)

        monkeypatch.setattr(oracle, "_WalkState", Recording)
        oracle._enumerate_rules.cache_clear()
        cf, nn = enumerate_walks(n, CF), enumerate_walks(n, NN)
        size, total = min(2**n, oracle._BLOCK), n // 2 + 1
        grid = (size // min(size, 4096), min(size, 4096))
        whole = total if n <= 16 else 8  # pairs (0, 1), (2, 3), ..., (14, 15) of steps 0..15
        new = ("new", n, grid, (CF, NN))
        block = [("advance", whole, total - whole, grid), ("read", total, (CF, NN))]
        prefix = [new, ("advance", 0, whole, grid)]
        assert calls == prefix + ([] if n <= 16 else [new]) + block * 2 ** (n - min(n, 16))
        assert cf.rule is CF and nn.rule is NN

    @pytest.mark.parametrize("n", [0, 7, 12, 13, 16, 17, 18])
    def test_resumed_blocks_match_fresh_blocks(self, n):
        # the reference counts every block from fresh 1-D state over all n
        # steps, from the plain bits of the ids; the n cover a grid of one
        # row, of rows of 4096, one block and many blocks
        width, block = n + 2, min(2**n, oracle._BLOCK)
        tally = np.zeros((width, width, 2), dtype=np.int64)
        ids = np.arange(block)
        table = [((ids >> k) & 1).astype(np.uint8) for k in range(min(n, 16))]
        for start in range(0, 1 << n, block):
            bits = [*table, *((start >> k) & 1 for k in range(16, n))]
            (cf, nn), sums = _count_walks(pair_bits(bits), n, block, (CF, NN))
            positive = (sums >= 2 * bits[-1]) if n >= 2 else np.zeros(block, bool)  # S_{n-1} > 0
            np.add.at(tally, (cf.astype(np.intp), nn.astype(np.intp), positive.astype(np.intp)), 1)
        stats = oracle._enumerate_rules(n)
        assert stats[CF].count_hist == tuple(tally.sum(axis=(1, 2)).tolist())
        assert stats[CF].joint_pos == tuple(tally[:, :, 1].sum(axis=1).tolist())
        assert stats[NN].count_hist == tuple(tally.sum(axis=(0, 2)).tolist())
        assert stats[NN].joint_pos == tuple(tally[:, :, 1].sum(axis=0).tolist())

    def test_grid_broadcasts_the_plain_bits(self):
        # path id = row * 4096 + col: step k + 1 of id is (id >> k) & 1 at
        # (id // 4096, id % 4096), from a read-only row or column of the grid,
        # none of them 2^16 bits long
        rows, cols = oracle._BLOCK // 4096, 4096
        ids = np.arange(oracle._BLOCK)
        table = oracle._bit_table()
        assert len(table) == 16
        for k, bits in enumerate(table):
            assert bits.shape == ((cols,) if k < 12 else (rows, 1)) and bits.dtype == np.uint8
            assert not bits.flags.writeable
            grid = np.broadcast_to(bits, (rows, cols))
            assert np.array_equal(grid[ids // cols, ids % cols], (ids >> k) & 1)


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
        # the vectorized tally must agree with the dumb per-path loop, joint_pos included
        hist, joint = [0] * (n + 2), [0] * (n + 2)
        for signs in product((1, -1), repeat=n):
            count = count_positive(signs, rule)
            hist[count] += 1
            joint[count] += sum(signs[:-1]) > 0  # S_{n-1}; S_0 = 0 for n = 1, none for n = 0
        stats = enumerate_walks(n, rule)
        assert (stats.count_hist, stats.joint_pos) == (tuple(hist), tuple(joint))

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

    def test_cap_is_the_only_limit_on_length(self, monkeypatch):
        # past 32 steps the cap still refuses before any path is built
        def no_paths(n, rule):
            raise AssertionError("enumeration started")

        monkeypatch.setattr("coinwalk.oracle._enumerate", no_paths)
        with pytest.raises(CapExceeded):
            enumerate_walks(33, CF, cap=32)

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
        assert oracle_distribution(m, CF) == law(m)


class TestOracleConditional:
    def test_examples(self):
        assert oracle_conditional(1) == (0, 1)
        assert oracle_conditional(2) == (0, F(1, 2), 1)
        assert oracle_conditional(3) == (0, F(1, 3), F(2, 3), 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_r_over_n(self, n):
        assert oracle_conditional(n) == tuple(F(r, n) for r in range(n + 1))


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestFrozenEnumeration:
    # sha256 prefixes of (count_hist, joint_pos), recorded with the row-major
    # cumsum kernel; every size spans more than one 2^16-path block
    PINS = {
        (17, CF): "3d6735090785b2d5",
        (17, NN): "1fb0de1d337be78f",
        (20, CF): "bf1c4927297a6eee",
        (20, NN): "0c443b58500105e6",
        (24, CF): "6acc510f10cb38bf",
        (24, NN): "9775fd44d0212989",
    }

    @pytest.mark.parametrize("n,rule", sorted(PINS, key=lambda k: (k[0], k[1].value)))
    def test_pinned(self, n, rule):
        stats = enumerate_walks(n, rule)
        assert digest((stats.count_hist, stats.joint_pos)) == self.PINS[n, rule]

    @pytest.mark.parametrize("n", [17, 18])
    def test_multi_block_matches_law(self, n):
        assert oracle_distribution(n, CF) == law(n)

    def test_multi_block_conditional(self):
        assert oracle_conditional(9) == tuple(F(r, 9) for r in range(10))
