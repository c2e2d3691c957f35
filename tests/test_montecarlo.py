import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinwalk import montecarlo
from coinwalk.distributions import Distribution, law
from coinwalk.errors import DomainError
from coinwalk.montecarlo import (
    SimConfig,
    arcsine_cdf,
    arcsine_sup_distance,
    simulate,
    splitmix64,
    tv_distance,
    walk_steps,
)
from coinwalk.oracle import PositivityRule, _widths, count_positive

CF = PositivityRule.CHUNG_FELLER
NN = PositivityRule.NON_NEGATIVE


def simulate_in_blocks(monkeypatch, cfg, block):
    """simulate(cfg) counting at most `block` walks at a time."""
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    return simulate(cfg)


class TestGenerator:
    def test_known_first_output_for_seed_zero(self):
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF

    def test_frozen_vectors_seed_42(self):
        # regression pins for this exact generator definition
        assert [splitmix64(42, i) for i in range(3)] == [
            0xBDD732262FEB6E95,
            0x28EFE333B266F103,
            0x47526757130F9F52,
        ]

    def test_wraps_seed_to_64_bits(self):
        assert splitmix64((1 << 64) + 5, 3) == splitmix64(5, 3)


class TestDeterminism:
    def test_identical_config_identical_histogram(self):
        cfg = SimConfig(m=25, samples=2000, seed=123)
        assert simulate(cfg) == simulate(cfg)

    @pytest.mark.parametrize("m", [19, 63, 64, 65, 129, 200])
    def test_block_layout_invisible(self, monkeypatch, m):
        # 63..129 end on a partial, a full and a one-step last word column;
        # 200 reads uint16 rows
        cfg = SimConfig(m=m, samples=501, seed=9)
        hists = {block: simulate_in_blocks(monkeypatch, cfg, block)
                 for block in (1, 7, 64, 501, 1 << 16)}
        assert len(set(hists.values())) == 1

    @pytest.mark.parametrize("m", [19, 63, 64, 65, 129, 200])
    @pytest.mark.parametrize("rule", [CF, NN], ids=["cf", "nonneg"])
    def test_slice_layout_invisible(self, monkeypatch, m, rule):
        # a word column made in slices of 1, 7, 64 or 501 walks, the last one
        # shorter than the rest (501 = 7 * 71 + 4 = 64 * 7 + 53), equals the
        # column made in one piece
        cfg = SimConfig(m=m, samples=501, seed=9, rule=rule)
        monkeypatch.setattr(montecarlo, "_SLICE", 1 << 16)
        whole = simulate_in_blocks(monkeypatch, cfg, 1 << 16)
        for piece in (1, 7, 64, 501):
            monkeypatch.setattr(montecarlo, "_SLICE", piece)
            for block in (7, 501, 1 << 16):
                assert simulate_in_blocks(monkeypatch, cfg, block) == whole, (piece, block)

    @pytest.mark.parametrize("rule", [CF, NN], ids=["cf", "nonneg"])
    def test_one_block_memory(self, rule):
        # a block's word column is made a slice at a time with a one-byte carry
        # per walk: about 1.5 (cf) and 1.8 MiB (nonneg) traced, against 3.0 and
        # 3.3 MiB for four 64-bit buffers as long as the block; and a block's
        # u and counts are let go before the next is built, so three blocks
        # peak as one does (a finished block kept alive adds 256 KiB)
        peaks = []
        for blocks in (1, 3):
            tracemalloc.start()
            try:
                simulate(SimConfig(m=1000, samples=blocks << 16, seed=1, rule=rule))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2.25 * 2**20
        assert peaks[1] <= peaks[0] + 64 * 2**10, peaks

    def test_oversized_block_is_clamped_not_trusted(self, monkeypatch):
        cfg = SimConfig(m=19, samples=101, seed=9)
        assert simulate_in_blocks(monkeypatch, cfg, 1 << 30) == simulate_in_blocks(
            monkeypatch, cfg, 11)

    @pytest.mark.parametrize("m", [1, 126, 127, 1000, 40000])
    @pytest.mark.parametrize("split", [False, True], ids=["summed", "split"])
    def test_step_bits_in_the_kernel_width(self, m, split):
        # bits narrower than the kernel's counters would add through numpy's
        # slower mixed-type loops; the summed pairs' first half is the int 0
        pairs = list(montecarlo._block_pairs(3, m, 0, 5, split))
        assert len(pairs) == m // 2 + 1
        halves = [half for pair in pairs for half in (pair if split else pair[1:])]
        assert {half.dtype for half in halves} == {np.dtype(_widths(m)[1])}
        if not split:
            assert all(type(x) is int and x == 0 for x, _ in pairs)

    @pytest.mark.parametrize("m", [1, 2, 62, 63, 64, 65, 66, 127, 128, 129, 1000])
    @pytest.mark.parametrize("split", [False, True], ids=["summed", "split"])
    def test_pairs_match_walk_steps(self, m, split):
        # pair j is steps 2j and 2j+1 of the stream shifted up one bit, with
        # steps 0 and m+1 zero: no random bit past step m reaches the last
        # pair, and step 64t comes from word t-1's top bit
        cfg = SimConfig(m=m, samples=70, seed=23)
        start, stop = 6, 70
        got = [(x if type(x) is int else x.tolist(), y.tolist())
               for x, y in montecarlo._block_pairs(cfg.seed, m, start, stop, split)]
        walks = [[0, *(int(s > 0) for s in walk_steps(cfg, i)), 0] for i in range(start, stop)]
        want = []
        for j in range(m // 2 + 1):
            x, y = [bits[2 * j] for bits in walks], [bits[2 * j + 1] for bits in walks]
            want.append((x, y) if split else (0, [a + b for a, b in zip(x, y)]))
        assert got == want

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(m=-1, samples=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(m=4, samples=0, seed=0)


class TestSpotCheck:
    def test_thousand_paths_recounted_independently(self):
        # re-derive every walk in plain Python and count with the reference rule
        cfg = SimConfig(m=25, samples=1000, seed=7)
        hist = simulate(cfg)
        recount = Counter(count_positive(walk_steps(cfg, j), CF) for j in range(cfg.samples))
        assert tuple(recount.get(j, 0) for j in range(cfg.m + 1)) == hist

    def test_nonneg_rule_too(self):
        cfg = SimConfig(m=12, samples=400, seed=11, rule=NN)
        hist = simulate(cfg)
        recount = Counter(count_positive(walk_steps(cfg, j), NN) for j in range(cfg.samples))
        assert tuple(recount.get(j, 0) for j in range(cfg.m + 2)) == hist

    @pytest.mark.parametrize("m", [2, 62, 63, 64, 65, 66, 127, 129, 130, 300])
    @pytest.mark.parametrize("rule", [CF, NN])
    def test_multi_word_walks(self, monkeypatch, m, rule):
        # walks spanning several splitmix words pin the byte and word order;
        # 300 reads uint16 rows, flushes the int8 tallies twice, and ends on a
        # partial word column
        cfg = SimConfig(m=m, samples=150, seed=17, rule=rule)
        hist = simulate_in_blocks(monkeypatch, cfg, 37)
        recount = Counter(count_positive(walk_steps(cfg, j), rule) for j in range(cfg.samples))
        assert tuple(recount.get(j, 0) for j in range(len(hist))) == hist

    def test_walk_steps_domain(self):
        cfg = SimConfig(m=4, samples=10, seed=0)
        with pytest.raises(DomainError):
            walk_steps(cfg, 10)


class TestStatistics:
    def test_single_toss(self):
        cfg = SimConfig(m=1, samples=10000, seed=2024)
        hist = simulate(cfg)
        assert abs(hist[1] / 10000 - 0.5) < 0.02

    def test_four_tosses_close_to_law(self):
        cfg = SimConfig(m=4, samples=100000, seed=31337)
        assert tv_distance(simulate(cfg), law(4)) < 0.01

    def test_m25_against_odd_law(self):
        cfg = SimConfig(m=25, samples=100000, seed=5150)
        tv = tv_distance(simulate(cfg), law(25))
        assert tv < 0.02
        # seed-fixed regression value recorded at first run: 0.0055739982986
        assert abs(tv - 0.0055739982986) < 1e-9

    def test_zero_length_walk(self):
        assert simulate(SimConfig(m=0, samples=50, seed=1)) == (50,)
        assert simulate(SimConfig(m=0, samples=50, seed=1, rule=NN)) == (0, 50)


class TestReporting:
    def test_tv_identical(self):
        d = law(4)
        hist = tuple(int(p * 80) for p in d.mass)
        assert tv_distance(hist, d) == 0

    def test_tv_disjoint(self):
        d = Distribution.from_counts([1, 0], 1)
        assert tv_distance((0, 10), d) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda m: st.tuples(
        st.lists(st.integers(0, 10**6), min_size=m + 1, max_size=m + 1).filter(any),
        st.none() | st.lists(st.integers(0, 3), min_size=m + 1, max_size=m + 1).filter(any),
    )))
    def test_tv_matches_fraction_reference(self, case):
        # the closed law, or counts whose trailing zeros the law's PGF drops
        hist, counts = case
        exact = law(len(hist) - 1) if counts is None else Distribution.from_counts(
            counts, sum(counts))
        samples = sum(hist)
        want = 0.5 * sum(abs(h / samples - float(p)) for h, p in zip(hist, exact.mass))
        assert tv_distance(hist, exact) == want

    def test_tv_support_mismatch(self):
        with pytest.raises(DomainError):
            tv_distance((1, 2, 3), law(4))

    def test_arcsine_cdf_endpoints(self):
        assert arcsine_cdf(0.0) == 0.0
        assert arcsine_cdf(1.0) == 1.0
        assert abs(arcsine_cdf(0.5) - 0.5) < 1e-12

    @pytest.mark.parametrize(
        "report",
        [
            lambda: arcsine_sup_distance((3,)),
            lambda: arcsine_sup_distance(()),
            lambda: arcsine_sup_distance((0, 0)),
            lambda: tv_distance((0, 0), law(1)),
        ],
        ids=["arcsine-one-slot", "arcsine-empty", "arcsine-no-samples", "tv-no-samples"],
    )
    def test_degenerate_histogram_is_domain_error(self, report):
        with pytest.raises(DomainError):
            report()

    def test_sup_distance_detects_point_mass(self):
        # all mass at the middle is far from the U-shaped arcsine law
        hist = [0] * 11
        hist[5] = 1000
        assert arcsine_sup_distance(hist) > 0.3


class TestFrozenHistograms:
    # sha256 prefixes of simulate(SimConfig(m, 3000, seed, rule)), recorded
    # with the row-major cumsum kernel
    TOP = (1 << 64) - 1
    PINS = {
        (0, 0, CF): "12cd49f540fdb912",
        (0, 0, NN): "b56f4d85dc119aec",
        (0, TOP, CF): "12cd49f540fdb912",
        (0, TOP, NN): "b56f4d85dc119aec",
        (1, 0, CF): "ef21cf79c09d1f40",
        (1, 0, NN): "abe7062dce246cf5",
        (1, TOP, CF): "78bc6e6abc4fc974",
        (1, TOP, NN): "154abd50648dcc0d",
        (63, 0, CF): "f1f7fa80fd853db8",
        (63, 0, NN): "705d0eb156bc983c",
        (63, TOP, CF): "f5e2fe8750166462",
        (63, TOP, NN): "56f5c8d90e59c3d9",
        (64, 0, CF): "98f35cd45fdda9c9",
        (64, 0, NN): "cd57b2034c6103b5",
        (64, TOP, CF): "7430a12ea5154439",
        (64, TOP, NN): "1b08fdfec1f6858d",
        (65, 0, CF): "3757688c790ec24c",
        (65, 0, NN): "9ddf81cf213b76e4",
        (65, TOP, CF): "adb2cbe13e69992a",
        (65, TOP, NN): "6a4216962ddf5bcd",
        (128, 0, CF): "c256b8b7c2392a32",
        (128, 0, NN): "266669a1bd48c9b2",
        (128, TOP, CF): "09cfa241fbded409",
        (128, TOP, NN): "50d2f8f1bb6cc23b",
        (1000, 0, CF): "f418d26617c2aceb",
        (1000, 0, NN): "de670ff34d8ac3c8",
        (1000, TOP, CF): "2697544f8310aefb",
        (1000, TOP, NN): "45448e1b6f4eddce",
    }

    @pytest.mark.parametrize("m,seed,rule", sorted(PINS, key=lambda k: (k[0], k[1], k[2].value)))
    def test_pinned(self, m, seed, rule):
        hist = simulate(SimConfig(m=m, samples=3000, seed=seed, rule=rule))
        assert hashlib.sha256(repr(hist).encode()).hexdigest()[:16] == self.PINS[m, seed, rule]
