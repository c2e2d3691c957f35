"""Cross-route verification harness.

Every law in this package can be computed several independent ways: closed
formula, lattice recursion, series expansion, Legendre identities, exhaustive
enumeration.  This module runs the comparisons and emits one
:class:`ReportRow` per check.  A row holds the exact polynomial it compared
(never a decimal), so a mismatch pinpoints the first differing coefficient;
the command line's csv and json writers render it as text.

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

from dataclasses import dataclass, replace
from fractions import Fraction

from .distributions import conditional_positive, law, pgf
from .errors import DomainError
from .lattice import dp_pgf_table
from .legendre import (
    lagrange_series,
    legendre,
    legendre_pgf_table,
    odd_pgf_via_derivative,
    odd_pgf_via_parity_split,
    odd_pgf_via_partial_sums,
    odd_pgf_via_ratio,
    odd_pgf_via_three_term,
)
from .oracle import DEFAULT_CAP, PositivityRule, oracle_conditional, oracle_distribution
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
    """One verification check: route, length, compared polynomial, verdict.

    `got` is the route's polynomial, shown zero-padded to `size` coefficients
    (the longer side of the comparison); a skipped row and the ratio-form ok
    row hold QPoly() with size 0.  The writers render it; the row holds no text.
    """

    route: str
    n: int
    got: QPoly
    size: int
    status: str  # "ok" | "mismatch@<j>" | "skipped:cap"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[ReportRow, ...]
    strict_csaki: bool = False

    @property
    def _gating(self) -> list[ReportRow]:
        quarantined = QUARANTINED - ({"csaki"} if self.strict_csaki else set())
        return [row for row in self.rows if row.route not in quarantined]

    @property
    def mismatched(self) -> bool:
        """True when a gating row compared and disagreed."""
        return any(row.status.startswith("mismatch") for row in self._gating)

    @property
    def unchecked(self) -> tuple[str, ...]:
        """Gating routes all of whose rows are skipped: they compared nothing."""
        compared = {row.route for row in self._gating if not row.status.startswith("skipped")}
        return tuple(dict.fromkeys(row.route for row in self._gating if row.route not in compared))

    @property
    def passed(self) -> bool:
        """True when rows were made and none mismatched or left a gating route unchecked."""
        return bool(self.rows) and not (self.mismatched or self.unchecked)


def _compare(route: str, n: int, got: QPoly, want: QPoly) -> ReportRow:
    """Row comparing two polynomials exactly; a rational sequence is passed as one."""
    size = max(got.degree, want.degree) + 1
    status = "ok"
    if got != want:
        status = f"mismatch@{next(j for j in range(size) if got.coeff(j) != want.coeff(j))}"
    # an agreeing row keeps `want`: equal to got, and shared by the routes of a length
    return ReportRow(route, n, want if status == "ok" else got, size, status)


def _skipped(route: str, n: int) -> ReportRow:
    return ReportRow(route, n, QPoly(), 0, "skipped:cap")


def _check_parity(max_n: int, order: int, cap: int, parity: int, dp_table: list[QPoly],
                  legendre_table: list[QPoly] | None, evens: list[QPoly],
                  even: BivariateSeries, odd: BivariateSeries) -> list[ReportRow]:
    """Rows for every m of one parity; `even` and `odd` are the walk series' two parts."""
    rows = []
    part, part_route = (odd, "series-odd") if parity else (even, "series-even")
    odd_ratio = pgf_series_odd_ratio(order) if parity == 1 else None
    for m in range(parity, max_n + 1, 2):
        closed = evens[m // 2] if parity == 0 else pgf(law(m))  # evens[k] = pgf(law(2k))
        rows.append(_compare("dp", m, dp_table[m], closed))
        if m < order:
            # z^m of pgf_series(order), formed per row: an agreeing row keeps `closed`
            rows.append(_compare("series", m, even.coeff(m) + odd.coeff(m), closed))
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
            rows.append(_compare("legendre", m, legendre_table[m // 2], closed))
        else:
            n = (m - 1) // 2
            if m < order:
                rows.append(_compare("series-odd-ratio", m, odd_ratio.coeff(m), closed))
            e = evens[n:n + 3]  # E_n, E_{n+1}, E_{n+2}
            rows.append(_compare("identity-ratio", m, odd_pgf_via_ratio(n, *e), closed))
            rows.append(_compare("identity-derivative", m, odd_pgf_via_derivative(n, *e), closed))
            rows.append(_compare("identity-three-term", m, odd_pgf_via_three_term(n, *e), closed))
            rows.append(_compare("identity-parity-split", m,
                                 odd_pgf_via_parity_split(n, *e), closed))
            rows.append(_compare("partial-sums", m, odd_pgf_via_partial_sums(n, *e), closed))
    return rows


def _check_ratio_form(order: int, dp_table: list[QPoly]) -> ReportRow:
    """Audit of the printed single-ratio form against the recursion route.

    Expanded lazily: at order 1, then at twice the order while every
    coefficient agrees, up to the last one compared.  The form's denominator
    has the constant z^0 term -16, so a coefficient does not depend on the
    order it is expanded at, and the row is the one a full expansion gives.
    """
    stop = min(order, len(dp_table))
    done, k = 0, 1
    while True:
        ratio = pgf_series_ratio(k)
        for n in range(done, k):
            if ratio.coeff(n) != dp_table[n]:
                return ReportRow("ratio-form", n, ratio.coeff(n), n + 1, f"mismatch@{n}")
        if k == stop:
            return ReportRow("ratio-form", order - 1, QPoly(), 0, "ok")
        done, k = k, min(2 * k, stop)


def _check_csaki(order: int, cap: int) -> list[ReportRow]:
    # built only as far as a compared row reads: n <= min(order - 1, cap)
    series = nonneg_series(min(order, cap + 1))
    return [_compare("csaki", n, series.coeff(n),
                     pgf(oracle_distribution(n, PositivityRule.NON_NEGATIVE, cap=cap)))
            if n <= cap else _skipped("csaki", n) for n in range(order)]


def _check_cond(max_n: int, cap: int) -> list[ReportRow]:
    """Rows n = 1..max_n // 2: row n enumerates the walks of 2n steps."""
    return [_compare("cond", n, QPoly(oracle_conditional(n, cap=cap)),
                     QPoly(conditional_positive(n, r) for r in range(n + 1)))
            if 2 * n <= cap else _skipped("cond", n) for n in range(1, max_n // 2 + 1)]


def _check_legendre(max_n: int, legendre_table: list[QPoly],
                    evens: list[QPoly]) -> list[ReportRow]:
    """Two-route rows, to walk length 2 max_n (n is a Legendre degree), then Lagrange rows."""
    rows = [_compare("legendre-two-route", n, got, evens[n]) if n < len(evens)
            else _compare_far(n, got) for n, got in enumerate(legendre_table)]
    count = min(max_n, 20) + 1
    rows.append(_compare("lagrange-ones", count - 1,
                         QPoly(lagrange_series(1, 0, count)), QPoly((1,) * count)))
    for a, b in LEGENDRE_PAIRS:
        want = QPoly(legendre(m)(a) for m in range(count))
        rows.append(_compare(f"lagrange[a={a},b={b}]", count - 1,
                             QPoly(lagrange_series(a, b, count)), want))
    # independent series-engine expansion of 1/sqrt(1 - 2z - 3z^2) (a = b = 1)
    direct = BivariateSeries.from_terms({0: 1, 1: -2, 2: -3}, count).sqrt().reciprocal()
    rows.append(_compare("lagrange-vs-series", count - 1,
                         QPoly(lagrange_series(1, 1, count)),
                         QPoly(c(1) for c in direct.coeffs)))
    return rows


def _compare_far(n: int, got: QPoly) -> ReportRow:
    """Two-route row past the shared even laws; an agreeing row holds the table's entry.

    E_n is built for this row alone, so it is freed once compared instead of
    kept beside its equal table entry until the report is done.
    """
    row = _compare("legendre-two-route", n, got, pgf(law(2 * n)))
    return replace(row, got=got) if row.ok else row


def run_verify(max_n: int = 12, order: int | None = None, sections: str = "all",
               cap: int = DEFAULT_CAP, strict_csaki: bool = False) -> VerifyReport:
    """Run the selected checks; series and csaki rows end at order - 1 (default max_n).

    A section is the ``all`` run restricted to its routes: its rows are, in
    order and payload, the rows of ``all`` whose route it names (``even`` and
    ``odd`` take the parity routes at their own lengths; ``ratio-form`` is in
    no section).  max_n is a walk length: a ``cond`` row n enumerates a walk
    of 2n steps, so those rows stop at max_n // 2.
    """
    if sections not in SECTIONS:
        raise DomainError(f"unknown section {sections!r}; choose from {SECTIONS}")
    rows: list[ReportRow] = []
    evens: list[QPoly] = []  # E_k = pgf(law(2k)): one object per k, shared by its rows
    # every series is built once, only as far as a compared row reads: z^max_n
    order = min(max_n + 1 if order is None else order, max_n + 1)
    if sections in ("all", "even", "odd"):
        dp_table = dp_pgf_table(max_n)
        even = pgf_series_even(order + 1)
        odd = _odd_from_even(even)
        # every E_k a parity row or an odd identity reads (k <= max_n // 2 + 2)
        evens = [pgf(law(2 * k)) for k in range(max_n // 2 + 3)]
    # built after the parity inputs, so that neither is held under the other's peak,
    # and only as far as an even-parity or two-route legendre row reads
    legendre_table = (legendre_pgf_table(max_n // 2 if sections == "even" else max_n)
                      if sections in ("all", "even", "legendre") else None)
    for name, parity in (("even", 0), ("odd", 1)):
        if sections in ("all", name):
            rows.extend(_check_parity(max_n, order, cap, parity, dp_table, legendre_table,
                                      evens, even, odd))
    if sections == "all":
        rows.append(_check_ratio_form(order, dp_table))
    if sections in ("all", "csaki"):
        rows.extend(_check_csaki(order, cap))
    if sections in ("all", "cond"):
        rows.extend(_check_cond(max_n, cap))
    if sections in ("all", "legendre"):
        rows.extend(_check_legendre(max_n, legendre_table, evens))
    return VerifyReport(rows=tuple(rows), strict_csaki=strict_csaki)
