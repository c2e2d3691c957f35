import sys
from collections import Counter

import pytest

from coinwalk.distributions import law
from coinwalk.oracle import WalkStats
from coinwalk.verify import ReportRow, VerifyReport, run_verify


def rows_by_route(report, route):
    return [r for r in report.rows if r.route == route]


class TestReportMechanics:
    def test_ok_property(self):
        assert ReportRow("dp", 3, "1/2,1/2", "ok").ok
        assert not ReportRow("dp", 3, "1/2,1/2", "mismatch@0").ok

    def test_quarantined_routes_do_not_gate(self):
        rows = (
            ReportRow("dp", 1, "", "ok"),
            ReportRow("csaki", 2, "", "mismatch@0"),
            ReportRow("ratio-form", 0, "", "mismatch@0"),
        )
        assert VerifyReport(rows).passed
        assert not VerifyReport(rows, strict_csaki=True).passed

    def test_gating_routes_fail(self):
        rows = (ReportRow("dp", 1, "", "mismatch@1"),)
        assert not VerifyReport(rows).passed

    def test_skips_do_not_gate(self):
        rows = (ReportRow("oracle", 30, "", "skipped:cap"),)
        assert VerifyReport(rows).passed


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

    def test_cond_section_uses_max_n_directly(self):
        report = run_verify(max_n=5, sections="cond")
        assert [r.n for r in report.rows] == [1, 2, 3, 4, 5]

    def test_strict_csaki_passes_because_form_agrees(self):
        report = run_verify(max_n=8, order=10, sections="csaki", strict_csaki=True)
        assert report.passed
        assert all(r.ok for r in report.rows)

    @pytest.mark.parametrize("sections,max_n,route", [("cond", 17, "cond"), ("odd", 33, "oracle")])
    def test_cap_above_path_id_width(self, monkeypatch, sections, max_n, route):
        # walks past 32 steps have no uint32 path id: skipped:cap, not a lost report
        def closed_law_counts(n, rule):
            hist = tuple(int(p * 2**n) for p in law(n).mass) + (0,)
            return WalkStats(n, rule, hist, (0,) * (n + 2))

        monkeypatch.setattr("coinwalk.oracle._enumerate", closed_law_counts)
        report = run_verify(max_n=max_n, order=2, sections=sections, cap=40)
        last = rows_by_route(report, route)[-1]
        assert (last.n, last.status) == (max_n, "skipped:cap")

    def test_agreement_at_n_128(self):
        report = run_verify(max_n=128, order=129, cap=16)
        bad = [r for r in report.rows
               if r.status.startswith("mismatch") and r.route not in ("csaki", "ratio-form")]
        assert bad == []
        assert {r.n for r in rows_by_route(report, "series")} == set(range(129))

    def test_each_even_law_and_legendre_evaluation_built_once(self, monkeypatch):
        distributions = sys.modules["coinwalk.distributions"]
        legendre = sys.modules["coinwalk.legendre"]
        calls = Counter()

        def counted(kind, fn):
            def wrapper(n):
                calls[kind, n] += 1
                return fn(n)
            return wrapper

        even_law = counted("law", distributions.even_distribution)
        monkeypatch.setattr(distributions, "even_distribution", even_law)
        monkeypatch.setattr(legendre, "even_distribution", even_law)
        monkeypatch.setattr(legendre, "legendre", counted("P", legendre.legendre))
        legendre.even_pgf.cache_clear()
        legendre.even_pgf_via_legendre.cache_clear()
        report = run_verify(max_n=20, order=21, cap=8)
        assert report.passed
        assert set(calls.values()) == {1}
        assert {n for kind, n in calls if kind == "law"} == set(range(21))
        assert {n for kind, n in calls if kind == "P"} == set(range(21))
