"""Cross-route verification harness.

Every law in this package can be computed several independent ways: closed
formula, lattice recursion, series expansion, Legendre identities, exhaustive
enumeration.  This module runs the comparisons and emits one
:class:`ReportRow` per check with exact (never decimal) payloads, so a
mismatch pinpoints the first differing coefficient.

Two checks are findings rather than gates and never affect the pass flag
unless promoted:

* ``csaki``      - the non-negative-count closed form needed an editorial
  radical correction, so it is reported but quarantined until promoted with
  ``strict_csaki=True`` (it does in fact agree with enumeration).
* ``ratio-form`` - the single-ratio printed form of the full series is
  transcription-defective; the harness reports where its expansion first
  departs from the recursion route (index 0) instead of patching it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .distributions import law, pgf
from .lattice import dp_pgf_table
from .legendre import (
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
from .oracle import _MAX_N, DEFAULT_CAP, PositivityRule, oracle_conditional, oracle_distribution
from .qpoly import QPoly
from .series import (
    BivariateSeries,
    _odd_from_even,
    nonneg_series,
    pgf_series_even,
    pgf_series_odd_ratio,
    pgf_series_ratio,
)

SECTIONS = ("all", "even", "odd", "csaki", "cond", "legendre")

#: routes whose rows are findings, not gates
QUARANTINED = frozenset({"csaki", "ratio-form"})

#: admissible (a, b) pairs with a^2 - 4 b^2 = 1 for the Legendre specialization
LEGENDRE_PAIRS = (
    (Fraction(5, 4), Fraction(3, 8)),
    (Fraction(13, 12), Fraction(5, 24)),
    (Fraction(5, 3), Fraction(2, 3)),
)


@dataclass(frozen=True)
class ReportRow:
    """One verification check: which route, which length, exact payload, verdict."""

    route: str
    n: int
    payload: str
    status: str  # "ok" | "mismatch@<j>" | "skipped:cap"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[ReportRow, ...]
    strict_csaki: bool = False

    @property
    def passed(self) -> bool:
        quarantined = QUARANTINED - ({"csaki"} if self.strict_csaki else set())
        return all(
            row.ok or row.route in quarantined or row.status.startswith("skipped")
            for row in self.rows
        )


def _exact(values: Iterable[Fraction]) -> str:
    return ",".join(str(v) for v in values)


def _pad(values: Sequence[Fraction], size: int) -> list[Fraction]:
    return list(values) + [Fraction(0)] * (size - len(values))


def _compare(route: str, n: int, got, want) -> ReportRow:
    """Row comparing coefficient sequences (QPoly or rational lists), exactly."""
    got = got.coeffs if isinstance(got, QPoly) else tuple(got)
    want = want.coeffs if isinstance(want, QPoly) else tuple(want)
    size = max(len(got), len(want))
    g, w = _pad(got, size), _pad(want, size)
    for j in range(size):
        if g[j] != w[j]:
            return ReportRow(route, n, _exact(g), f"mismatch@{j}")
    return ReportRow(route, n, _exact(g), "ok")


def _skipped(route: str, n: int) -> ReportRow:
    return ReportRow(route, n, "", "skipped:cap")


def _check_parity(max_n: int, order: int, cap: int, parity: int, dp_table: list[QPoly],
                  full: BivariateSeries, part: BivariateSeries) -> list[ReportRow]:
    """Rows for every m of one parity; `part` is that parity's series expansion."""
    rows = []
    part_route = "series-even" if parity == 0 else "series-odd"
    odd_ratio = pgf_series_odd_ratio(order) if parity == 1 else None
    for m in range(parity, max_n + 1, 2):
        # the even closed law is the memoized even_pgf the identities also read
        closed = pgf(law(m)) if parity else even_pgf(m // 2)
        rows.append(_compare("dp", m, dp_table[m], closed))
        if m < order:
            rows.append(_compare("series", m, full.coeff(m), closed))
            rows.append(_compare(part_route, m, part.coeff(m), closed))
        if m <= cap:
            rows.append(_compare(
                "oracle", m,
                pgf(oracle_distribution(m, PositivityRule.CHUNG_FELLER, cap=cap)),
                closed,
            ))
        else:
            rows.append(_skipped("oracle", m))
        if parity == 0:
            rows.append(_compare("legendre", m, even_pgf_via_legendre(m // 2), closed))
        else:
            n = (m - 1) // 2
            if m < order:
                rows.append(_compare("series-odd-ratio", m, odd_ratio.coeff(m), closed))
            rows.append(_compare("identity-ratio", m, odd_pgf_via_ratio(n), closed))
            rows.append(_compare("identity-derivative", m, odd_pgf_via_derivative(n), closed))
            rows.append(_compare("identity-three-term", m, odd_pgf_via_three_term(n), closed))
            rows.append(_compare("identity-parity-split", m, odd_pgf_via_parity_split(n), closed))
            rows.append(_compare("partial-sums", m, odd_masses_via_partial_sums(n), closed))
    return rows


def _check_ratio_form(order: int, dp_table: list[QPoly]) -> ReportRow:
    """Audit of the printed single-ratio form against the recursion route."""
    ratio = pgf_series_ratio(order)
    for n in range(min(order, len(dp_table))):
        if ratio.coeff(n) != dp_table[n]:
            return ReportRow("ratio-form", n, _exact(_pad(ratio.coeff(n).coeffs, n + 1)),
                             f"mismatch@{n}")
    return ReportRow("ratio-form", order - 1, "", "ok")


def _check_csaki(max_n: int, order: int, cap: int) -> list[ReportRow]:
    rows = []
    series = nonneg_series(order)
    for n in range(min(max_n, order - 1) + 1):
        if n > cap:
            rows.append(_skipped("csaki", n))
            continue
        want = pgf(oracle_distribution(n, PositivityRule.NON_NEGATIVE, cap=cap))
        rows.append(_compare("csaki", n, series.coeff(n), want))
    return rows


def _check_cond(max_n: int, cap: int) -> list[ReportRow]:
    rows = []
    for n in range(1, max_n + 1):
        if 2 * n > cap:
            rows.append(_skipped("cond", n))
            continue
        got = oracle_conditional(n, cap=cap)
        want = [Fraction(r, n) for r in range(n + 1)]
        rows.append(_compare("cond", n, got, want))
    return rows


def _check_legendre(max_n: int) -> list[ReportRow]:
    rows = []
    for n in range(max_n + 1):
        rows.append(_compare("legendre-two-route", n, even_pgf_via_legendre(n), even_pgf(n)))
    count = min(max_n, 20) + 1
    rows.append(_compare("lagrange-ones", count - 1,
                         lagrange_series(1, 0, count), [Fraction(1)] * count))
    for a, b in LEGENDRE_PAIRS:
        want = [legendre(m)(a) for m in range(count)]
        rows.append(_compare(f"lagrange[a={a},b={b}]", count - 1,
                             lagrange_series(a, b, count), want))
    # independent series-engine expansion of 1/sqrt(1 - 2z - 3z^2) (a = b = 1)
    direct = BivariateSeries.from_terms({0: 1, 1: -2, 2: -3}, count).sqrt().reciprocal()
    rows.append(_compare("lagrange-vs-series", count - 1,
                         lagrange_series(1, 1, count),
                         [c(1) for c in direct.coeffs]))
    return rows


def run_verify(max_n: int = 12, order: int = 32, sections: str = "all",
               cap: int = DEFAULT_CAP, strict_csaki: bool = False) -> VerifyReport:
    """Run the selected cross-route checks and collect the report."""
    if sections not in SECTIONS:
        raise ValueError(f"unknown section {sections!r}; choose from {SECTIONS}")
    rows: list[ReportRow] = []
    cap = min(cap, _MAX_N)  # walks too long for a path id are skipped:cap too
    if sections in ("all", "even", "odd"):
        dp_table = dp_pgf_table(max_n)
        even = pgf_series_even(order + 1)
        odd = _odd_from_even(even)
        full = even + odd  # what pgf_series(order) returns
        if sections in ("all", "even"):
            rows.extend(_check_parity(max_n, order, cap, 0, dp_table, full, even))
        if sections in ("all", "odd"):
            rows.extend(_check_parity(max_n, order, cap, 1, dp_table, full, odd))
        if sections == "all":
            rows.append(_check_ratio_form(order, dp_table))
    if sections in ("all", "csaki"):
        rows.extend(_check_csaki(max_n, order, cap))
    if sections in ("all", "cond"):
        rows.extend(_check_cond(max_n // 2 if sections == "all" else max_n, cap))
    if sections in ("all", "legendre"):
        rows.extend(_check_legendre(max_n))
    return VerifyReport(rows=tuple(rows), strict_csaki=strict_csaki)
