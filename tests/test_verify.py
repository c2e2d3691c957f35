import sys
from fractions import Fraction

import pytest

from coinwalk.cli import _report_rows
from coinwalk.distributions import law
from coinwalk.lattice import dp_pgf_table
from coinwalk.legendre import legendre, legendre_pgf_table
from coinwalk.oracle import DEFAULT_CAP, WalkStats
from coinwalk.qpoly import QPoly
from coinwalk.series import (
    BivariateSeries,
    nonneg_series,
    pgf_series,
    pgf_series_even,
    pgf_series_odd_ratio,
    pgf_series_ratio,
)
from coinwalk.verify import (
    SECTIONS,
    ReportRow,
    VerifyReport,
    _check_ratio_form,
    _compare,
    run_verify,
)

F = Fraction
NONE = QPoly()  # what a skipped row and the ratio-form ok row hold, with size 0


def rows_by_route(report, route):
    return [r for r in report.rows if r.route == route]


def payload(row):
    """The row's payload as the csv and json writers print it."""
    return next(_report_rows([row]))[2]


class TestReportMechanics:
    def test_ok_property(self):
        half = QPoly((F(1, 2), F(1, 2)))
        assert ReportRow("dp", 3, half, 2, "ok").ok
        assert not ReportRow("dp", 3, half, 2, "mismatch@0").ok

    def test_quarantined_routes_do_not_gate(self):
        rows = (
            ReportRow("dp", 1, NONE, 0, "ok"),
            ReportRow("csaki", 2, NONE, 0, "mismatch@0"),
            ReportRow("ratio-form", 0, NONE, 0, "mismatch@0"),
        )
        assert VerifyReport(rows).passed
        assert not VerifyReport(rows, strict_csaki=True).passed

    def test_gating_routes_fail(self):
        rows = (ReportRow("dp", 1, NONE, 0, "mismatch@1"),)
        assert not VerifyReport(rows).passed
        assert VerifyReport(rows).mismatched

    def test_skips_do_not_gate(self):
        rows = (ReportRow("oracle", 4, NONE, 0, "ok"), ReportRow("oracle", 30, NONE, 0, "skipped:cap"))
        assert VerifyReport(rows).passed
        assert VerifyReport(rows).unchecked == ()
        assert payload(rows[1]) == ""

    def test_route_that_compared_nothing_fails(self):
        # a PASS is never vacuous: a gating route with only skipped rows fails
        rows = (ReportRow("dp", 1, NONE, 0, "ok"), ReportRow("oracle", 30, NONE, 0, "skipped:cap"))
        report = VerifyReport(rows)
        assert report.unchecked == ("oracle",)
        assert not report.passed and not report.mismatched

    def test_report_without_rows_fails(self):
        # nothing compared is not a PASS, though no route has rows to name
        report = VerifyReport(())
        assert not report.passed
        assert report.unchecked == () and not report.mismatched

    def test_quarantined_skips_are_not_unchecked(self):
        rows = (ReportRow("dp", 1, NONE, 0, "ok"), ReportRow("csaki", 30, NONE, 0, "skipped:cap"))
        assert VerifyReport(rows).passed
        assert VerifyReport(rows, strict_csaki=True).unchecked == ("csaki",)


class TestCompare:
    # the payload is got's coefficients, zero-padded to the longer side
    @pytest.mark.parametrize("got,want,text,status", [
        (QPoly((F(1, 2),)), QPoly((F(1, 2), F(1, 2))), "1/2,0", "mismatch@1"),  # got shorter
        (QPoly((F(1, 2), 0, F(1, 2))), QPoly((F(1, 2),)), "1/2,0,1/2", "mismatch@2"),  # longer
        (QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8))), QPoly((F(3, 8), F(1, 8), F(1, 8), F(3, 8))),
         "3/8,1/8,1/8,3/8", "ok"),
        (QPoly((F(1, 2), 0, F(1, 2))), QPoly((F(1, 2), 0, F(1, 2))), "1/2,0,1/2", "ok"),
        (QPoly(), QPoly(), "", "ok"),
        (QPoly(), QPoly((1,)), "0", "mismatch@0"),
        (QPoly((1, 2, 3, 4)), QPoly((1, 2, 5, 6)), "1,2,3,4", "mismatch@2"),  # first index
        (QPoly((1, 2, 3, 4)), QPoly((1, 2, 3, 5)), "1,2,3,4", "mismatch@3"),
    ])
    def test_polynomials(self, got, want, text, status):
        row = _compare("r", 5, got, want)
        assert (row.route, row.n, row.got, row.status) == ("r", 5, got, status)
        assert payload(row) == text

    @pytest.mark.parametrize("got,want,text,status", [
        ([F(0), F(1, 2), F(1)], [F(0), F(1, 2), F(1)], "0,1/2,1", "ok"),
        ((F(0), F(1, 3), F(1)), [F(0), F(1, 2), F(1)], "0,1/3,1", "mismatch@1"),
        ((F(1), F(2)), [F(1), F(2), F(3)], "1,2,0", "mismatch@2"),
        ((F(3, 8), F(1, 8), F(1, 8), F(3, 8)), law(3).mass, "3/8,1/8,1/8,3/8", "ok"),
        ((F(3, 8), F(1, 4), F(3, 8)), law(3).mass, "3/8,1/4,3/8,0", "mismatch@1"),
    ])
    def test_rational_sequences(self, got, want, text, status):
        # the cond, partial-sums and lagrange rows pass their sequences as QPolys
        row = _compare("r", 2, QPoly(got), QPoly(want))
        assert (row.route, row.n, row.got, row.status) == ("r", 2, QPoly(got), status)
        assert payload(row) == text


class TestRatioFormRow:
    def test_printed_form_departs_at_z0(self):
        row = _check_ratio_form(6, dp_pgf_table(4))
        assert row == ReportRow("ratio-form", 0, NONE, 1, "mismatch@0")
        assert payload(row) == "0"

    @pytest.mark.parametrize("bad,text", [
        (QPoly((F(1, 2),)), "1/2,0,0"),  # padded to the n + 1 slots of the z^n law
        (QPoly((0, 1, 1, 1)), "0,1,1,1"),  # longer than that: printed whole
    ])
    def test_payload_of_first_departure(self, monkeypatch, bad, text):
        table = dp_pgf_table(3)
        coeffs = (*table[:2], bad, table[3])
        monkeypatch.setattr("coinwalk.verify.pgf_series_ratio",
                            lambda order: BivariateSeries(coeffs[:order]))
        row = _check_ratio_form(4, table)
        assert row == ReportRow("ratio-form", 2, bad, 3, "mismatch@2")
        assert payload(row) == text

    def test_agreement_row(self, monkeypatch):
        table = dp_pgf_table(2)
        coeffs = (*table, QPoly((1,)))
        monkeypatch.setattr("coinwalk.verify.pgf_series_ratio",
                            lambda order: BivariateSeries(coeffs[:order]))
        row = _check_ratio_form(4, table)
        assert row == ReportRow("ratio-form", 3, NONE, 0, "ok")
        assert payload(row) == ""


class TestLazyRatioForm:
    """The lazy audit against the full expansion it replaced, copied here."""

    @staticmethod
    def eager(build, order, dp_table):
        ratio = build(order)
        for n in range(min(order, len(dp_table))):
            if ratio.coeff(n) != dp_table[n]:
                return ReportRow("ratio-form", n, ratio.coeff(n), n + 1, f"mismatch@{n}")
        return ReportRow("ratio-form", order - 1, NONE, 0, "ok")

    @pytest.mark.parametrize("k", [0, 3, 40])
    def test_printed_form(self, k):
        table = dp_pgf_table(k)
        for order in range(1, 41):
            assert _check_ratio_form(order, table) == self.eager(pgf_series_ratio, order, table)

    @pytest.mark.parametrize("bad_at", [None, 0, 1, 2, 5, 9, 16, 33])
    def test_doubling_over_an_agreeing_prefix(self, monkeypatch, bad_at):
        # a stand-in form: the full series, off by 1/3 at one coefficient
        def stand_in(order):
            cs = list(pgf_series(order).coeffs)
            if bad_at is not None and bad_at < order:
                cs[bad_at] += QPoly((F(1, 3),))
            return BivariateSeries(tuple(cs))

        orders = []
        monkeypatch.setattr("coinwalk.verify.pgf_series_ratio",
                            lambda k: orders.append(k) or stand_in(k))
        table = dp_pgf_table(30)
        for order in range(1, 41):
            orders.clear()
            row = _check_ratio_form(order, table)
            assert row == self.eager(stand_in, order, table)
            if row.ok:  # expanded only as far as the last compared coefficient
                assert max(orders) == min(order, len(table))
            else:  # and no further than twice the first departure
                assert max(orders) <= max(1, 2 * row.n)


class TestRunVerify:
    def test_unknown_section(self):
        with pytest.raises(ValueError):
            run_verify(sections="bogus")

    def test_small_run_passes(self):
        report = run_verify(max_n=6, order=8)
        assert report.passed
        assert rows_by_route(report, "dp")

    def test_ratio_form_finding_reported(self):
        report = run_verify(max_n=4, order=6)
        (finding,) = rows_by_route(report, "ratio-form")
        assert finding.status == "mismatch@0"
        assert report.passed  # reported, never fatal

    def test_cap_violations_become_skips_not_crashes(self):
        report = run_verify(max_n=12, order=14, cap=6)
        skipped = [r for r in report.rows if r.status == "skipped:cap"]
        assert skipped
        assert report.passed

    @pytest.mark.parametrize("max_n", [5, 6])
    def test_cond_section_reaches_walk_length_max_n(self, max_n):
        # row n enumerates a walk of 2n steps, as in the full run
        report = run_verify(max_n=max_n, sections="cond")
        assert [r.n for r in report.rows] == list(range(1, max_n // 2 + 1))

    def test_section_without_rows_fails(self):
        report = run_verify(max_n=0, sections="cond")  # cond starts at n = 1
        assert report.rows == () and not report.passed
        assert run_verify(max_n=1).passed

    def test_strict_csaki_passes_because_form_agrees(self):
        report = run_verify(max_n=8, order=10, sections="csaki", strict_csaki=True)
        assert report.passed
        assert all(r.ok for r in report.rows)

    @pytest.mark.parametrize("sections,max_n,route", [("cond", 34, "cond"), ("odd", 33, "oracle")])
    def test_cap_above_32_steps_is_honoured(self, monkeypatch, sections, max_n, route):
        # the cap is the only limit: walks past 32 steps are compared, not skipped;
        # a cond row n enumerates a walk of 2n steps
        def closed_law_counts(n, rule):
            hist = tuple(int(p * 2**n) for p in law(n).mass) + (0,)
            return WalkStats(n, rule, hist, (0,) * (n + 2))

        monkeypatch.setattr("coinwalk.oracle._enumerate", closed_law_counts)
        report = run_verify(max_n=max_n, order=2, sections=sections, cap=40)
        last = rows_by_route(report, route)[-1]
        assert (2 * last.n if route == "cond" else last.n) == max_n
        assert last.status != "skipped:cap"

    def test_agreement_at_n_128(self):
        report = run_verify(max_n=128, order=129, cap=16)
        bad = [r for r in report.rows
               if r.status.startswith("mismatch") and r.route not in ("csaki", "ratio-form")]
        assert bad == []
        assert {r.n for r in rows_by_route(report, "series")} == set(range(129))

    def test_agreement_at_n_256(self):
        report = run_verify(max_n=256, order=257, cap=16)
        bad = [r for r in report.rows
               if r.status.startswith("mismatch") and r.route not in ("csaki", "ratio-form")]
        assert bad == []
        assert {r.n for r in rows_by_route(report, "series")} == set(range(257))

    def test_agreement_at_n_512(self):
        report = run_verify(max_n=512, order=513, cap=16)
        bad = [r for r in report.rows
               if r.status.startswith("mismatch") and r.route not in ("csaki", "ratio-form")]
        assert bad == []
        assert {r.n for r in rows_by_route(report, "series")} == set(range(513))

    @pytest.mark.parametrize("max_n", range(13))
    def test_section_is_the_full_run_filtered_to_its_routes(self, max_n):
        def section(row):
            if row.route in ("csaki", "cond"):
                return row.route
            if row.route.startswith(("legendre-two-route", "lagrange")):
                return "legendre"
            if row.route == "ratio-form":
                return None
            return ("even", "odd")[row.n % 2]  # the parity routes, at their own lengths

        def key(row):
            return row.route, row.n, row.status, row.got, row.size

        for order in {1, max_n // 2 + 1, max_n + 1, max_n + 5}:
            for cap in (0, 4, 8):
                for strict_csaki in (False, True):
                    full = run_verify(max_n, order, "all", cap, strict_csaki).rows
                    for name in SECTIONS[1:]:
                        got = run_verify(max_n, order, name, cap, strict_csaki).rows
                        assert [key(r) for r in got] == [
                            key(r) for r in full if section(r) == name], (name, order, cap)

    @pytest.mark.parametrize("max_n", [7, 21])
    @pytest.mark.parametrize("sections", SECTIONS)
    def test_legendre_table_built_only_as_far_as_compared(self, monkeypatch, sections, max_n):
        sizes, calls = [], []

        def recorded(n_max):
            sizes.append(n_max)
            return legendre_pgf_table(n_max)

        def counted(n):
            calls.append(n)
            return legendre(n)

        monkeypatch.setattr("coinwalk.verify.legendre_pgf_table", recorded)
        # the table must not fall back on the explicit sum, so its module is counted too
        monkeypatch.setattr("coinwalk.verify.legendre", counted)
        monkeypatch.setattr(sys.modules["coinwalk.legendre"], "legendre", counted)
        report = run_verify(max_n=max_n, order=max_n + 1, sections=sections, cap=8)
        assert report.passed
        # once per run, to the largest n a two-route or even-parity legendre row reads
        assert sizes == {"all": [max_n], "legendre": [max_n], "even": [max_n // 2]}.get(
            sections, [])
        # the explicit sum is built by the Lagrange rows only: three pairs, min(max_n, 20) + 1 each
        lagrange_rows = sections in ("all", "legendre")
        assert len(calls) == (3 * (min(max_n, 20) + 1) if lagrange_rows else 0)

    @pytest.mark.parametrize("max_n", [7, 21])
    @pytest.mark.parametrize("sections", SECTIONS)
    def test_each_law_built_once(self, monkeypatch, sections, max_n):
        lengths = []

        def counted(m):
            lengths.append(m)
            return law(m)

        monkeypatch.setattr("coinwalk.verify.law", counted)
        report = run_verify(max_n=max_n, order=max_n + 1, sections=sections, cap=8)
        assert report.passed
        assert len(lengths) == len(set(lengths))
        if sections in ("csaki", "cond"):
            assert lengths == []
        if sections == "all":
            # every odd length to max_n, every even one to 2 max_n (the two-route rows)
            odd, even = range(1, max_n + 1, 2), range(0, 2 * max_n + 1, 2)
            assert set(lengths) == set(odd) | set(even)
            # one law object per length: the even row and the two-route row share it
            got = {(row.route, row.n): row.got for row in report.rows}
            for k in range(max_n // 2 + 1):
                assert got["legendre", 2 * k] is got["legendre-two-route", k]

    @pytest.mark.parametrize("sections", ["all", "even"])
    def test_legendre_table_built_after_the_dp(self, monkeypatch, sections):
        # the table is not held under the DP's peak: the DP, the even series and the
        # shared even laws come first
        calls = []

        def recorded(name, build):
            return lambda n: calls.append(name) or build(n)

        for name, build in (("dp_pgf_table", dp_pgf_table), ("pgf_series_even", pgf_series_even),
                            ("law", law), ("legendre_pgf_table", legendre_pgf_table)):
            monkeypatch.setattr(f"coinwalk.verify.{name}", recorded(name, build))
        assert run_verify(max_n=9, sections=sections, cap=8).passed
        evens = ["law"] * (9 // 2 + 3)
        assert calls[:len(evens) + 3] == ["dp_pgf_table", "pgf_series_even", *evens,
                                          "legendre_pgf_table"]
        assert calls.count("legendre_pgf_table") == 1

    @pytest.mark.parametrize("sections", ["all", "legendre"])
    def test_far_two_route_rows_hold_the_table_entry(self, monkeypatch, sections):
        # a law built for one two-route row alone is not kept beside its equal table entry
        tables = []
        monkeypatch.setattr("coinwalk.verify.legendre_pgf_table",
                            lambda n: tables.append(legendre_pgf_table(n)) or tables[-1])
        report = run_verify(max_n=10, sections=sections, cap=8)
        assert report.passed and len(tables) == 1
        rows = [row for row in report.rows if row.route == "legendre-two-route"]
        assert [row.n for row in rows] == list(range(11))
        shared = 10 // 2 + 3 if sections == "all" else 0  # E_0..E_7, built for the parity rows
        assert all(row.got is tables[0][row.n] for row in rows[shared:])

    @pytest.mark.parametrize("sections", SECTIONS)
    def test_series_built_only_as_far_as_compared(self, monkeypatch, sections):
        built = {"even": [], "odd-ratio": []}

        def recorded(name, build):
            return lambda order: built[name].append(order) or build(order)

        monkeypatch.setattr("coinwalk.verify.pgf_series_even",
                            recorded("even", pgf_series_even))
        monkeypatch.setattr("coinwalk.verify.pgf_series_odd_ratio",
                            recorded("odd-ratio", pgf_series_odd_ratio))
        report = run_verify(max_n=12, order=32, sections=sections)
        # no row reads past z^12, so order 32 is cut to 13; the odd part needs one more
        parity = sections in ("all", "even", "odd")
        assert built == {"even": [14] if parity else [],
                         "odd-ratio": [13] if sections in ("all", "odd") else []}
        compared = {"all": range(13), "even": range(0, 13, 2), "odd": range(1, 13, 2)}
        assert {r.n for r in rows_by_route(report, "series")} == set(compared.get(sections, ()))


class TestDefaultOrder:
    def test_series_and_csaki_rows_reach_max_n(self):
        # the default order is max_n + 1, so no series or csaki length is dropped
        report = run_verify(max_n=40)
        assert report.passed
        for route in ("series", "csaki"):
            assert sorted(r.n for r in rows_by_route(report, route)) == list(range(41))
        assert {r.n for r in rows_by_route(report, "series-even")} == set(range(0, 41, 2))
        for route in ("series-odd", "series-odd-ratio"):
            assert {r.n for r in rows_by_route(report, route)} == set(range(1, 41, 2))
        assert all(r.ok for r in report.rows if r.route.startswith("series"))
        assert all(r.ok == (r.n <= DEFAULT_CAP) for r in rows_by_route(report, "csaki"))
        assert {r.status for r in rows_by_route(report, "csaki")} == {"ok", "skipped:cap"}


class TestCsakiExpansion:
    @pytest.mark.parametrize("max_n,order,cap,built", [
        (10, 40, 4, 5), (3, 40, 8, 4), (10, 6, 8, 6), (0, 1, 0, 1),
    ])
    def test_built_only_as_far_as_compared(self, monkeypatch, max_n, order, cap, built):
        orders = []

        def recorded(k):
            orders.append(k)
            return nonneg_series(k)

        monkeypatch.setattr("coinwalk.verify.nonneg_series", recorded)
        report = run_verify(max_n=max_n, order=order, sections="csaki", cap=cap,
                            strict_csaki=True)
        assert orders == [built]
        assert report.passed
        # every n up to min(max_n, order - 1) still has a row; those past the cap say so
        assert [r.n for r in report.rows] == list(range(min(max_n, order - 1) + 1))
        assert all(r.ok == (r.n <= cap) for r in report.rows)
