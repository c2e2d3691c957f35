"""Command-line front end.

Value tables use the fixed columns n, index, exact, decimal; the exact column
is a lossless num/den string and the decimal column (15 significant digits)
exists only for plotting.  Exit codes: 0 success, 1 verification mismatch,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .distributions import cdf, conditional_positive, law, pgf
from .errors import CoinwalkError
from .lattice import dp_pgf
from .legendre import lagrange_series
from .montecarlo import SimConfig, arcsine_sup_distance, simulate, tv_distance
from .oracle import DEFAULT_CAP, PositivityRule, oracle_conditional, oracle_distribution
from .series import (
    extract_pgf,
    nonneg_series,
    pgf_series,
    pgf_series_even,
    pgf_series_odd,
    pgf_series_odd_ratio,
    pgf_series_ratio,
)
from .verify import SECTIONS, run_verify

_SERIES_BUILDERS = {
    "even": pgf_series_even,
    "odd": pgf_series_odd,
    "odd-ratio": pgf_series_odd_ratio,
    "full": pgf_series,
    "ratio": pgf_series_ratio,
    "csaki": nonneg_series,
}

_RULES = {"cf": PositivityRule.CHUNG_FELLER, "nonneg": PositivityRule.NON_NEGATIVE}


def _dec(x) -> str:
    return f"{float(x):.15g}"


def _emit(rows: list[dict], fieldnames: list[str], fmt: str):
    if fmt == "json":
        print(json.dumps(rows, indent=None))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _emit_values(tables, fmt: str):
    """Emit (n, values) pairs as the fixed n, index, exact, decimal value table."""
    rows = [
        {"n": n, "index": j, "exact": str(v), "decimal": _dec(v)}
        for n, values in tables
        for j, v in enumerate(values or (0,))  # () is the zero polynomial: row n,0,0,0
    ]
    _emit(rows, ["n", "index", "exact", "decimal"], fmt)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("must be in 0..2^64-1")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def cmd_dist(args) -> int:
    dist = law(args.n)
    _emit_values([(args.n, cdf(dist) if args.cumulative else dist.mass)], args.format)
    return 0


def cmd_pgf(args) -> int:
    if args.method == "closed":
        poly = pgf(law(args.n))
    elif args.method == "dp":
        poly = dp_pgf(args.n)
    elif args.method == "series":
        poly = extract_pgf(pgf_series(args.n + 1), args.n)
    else:
        poly = pgf(oracle_distribution(args.n, PositivityRule.CHUNG_FELLER, cap=args.cap))
    if args.format == "text":
        print(poly)
        return 0
    _emit_values([(args.n, poly.coeffs)], args.format)
    return 0


def cmd_series(args) -> int:
    series = _SERIES_BUILDERS[args.which](args.order)
    _emit_values(enumerate(poly.coeffs for poly in series.coeffs), args.format)
    return 0


def cmd_oracle(args) -> int:
    dist = oracle_distribution(args.n, _RULES[args.rule], cap=args.cap)
    _emit_values([(args.n, dist.mass)], args.format)
    return 0


def cmd_conditional(args) -> int:
    oracle = oracle_conditional(args.n, cap=args.cap)
    rows = []
    for r, value in enumerate(oracle):
        formula = conditional_positive(args.n, r)
        rows.append({
            "r": r,
            "oracle": str(value),
            "formula": str(formula),
            "equal": value == formula,
        })
    _emit(rows, ["r", "oracle", "formula", "equal"], args.format)
    return 0 if all(row["equal"] for row in rows) else 1


def cmd_lagrange(args) -> int:
    coeffs = lagrange_series(args.a, args.b, args.order)
    if args.format == "text":
        print(",".join(str(c) for c in coeffs))
        return 0
    rows = [
        {"index": m, "exact": str(c), "decimal": _dec(c)} for m, c in enumerate(coeffs)
    ]
    _emit(rows, ["index", "exact", "decimal"], args.format)
    return 0


def cmd_simulate(args) -> int:
    cfg = SimConfig(m=args.m, samples=args.samples, seed=args.seed, rule=_RULES[args.rule])
    hist = simulate(cfg)
    rows = [
        {"index": j, "count": c, "freq": _dec(Fraction(c, args.samples))}
        for j, c in enumerate(hist)
    ]
    _emit(rows, ["index", "count", "freq"], args.format)
    if cfg.rule is PositivityRule.CHUNG_FELLER:
        notes = []
        if args.m > 0:  # count/m is undefined for the empty walk
            notes.append(f"arcsine sup distance: {arcsine_sup_distance(hist):.6f}")
        if args.m <= args.cap:
            exact = law(args.m)
            notes.append(f"tv distance to exact law: {tv_distance(hist, exact):.6f}")
        print("; ".join(notes), file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    report = run_verify(max_n=args.max_n, order=args.order, sections=args.sections,
                        cap=args.cap, strict_csaki=args.strict_csaki)
    if args.format == "json":
        print(json.dumps([row.__dict__ for row in report.rows]))
    elif args.format == "csv":
        _emit([row.__dict__ for row in report.rows],
              ["route", "n", "payload", "status"], "csv")
    else:
        for row in report.rows:
            print(f"{row.status:>12}  {row.route} n={row.n}")
        verdict = "PASS" if report.passed else "FAIL"
        print(f"verify: {verdict} ({len(report.rows)} checks)")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Exact laws of the time a fair coin-tossing walk spends positive, "
                    "with cross-verified computation routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("csv", "json"), default="csv"):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("dist", help="exact law of the positive-step count")
    p.add_argument("--n", type=_nonneg, required=True, help="number of tosses")
    p.add_argument("--cumulative", action="store_true", help="emit the CDF instead")
    add_format(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("pgf", help="probability generating function of the count")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--method", choices=("closed", "dp", "series", "oracle"), default="closed")
    p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    add_format(p, choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_pgf)

    p = sub.add_parser("series", help="coefficient table of a generating-function expansion")
    p.add_argument("--which", choices=sorted(_SERIES_BUILDERS), default="full")
    p.add_argument("--order", type=_positive, default=32)
    add_format(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("oracle", help="law by exhaustive enumeration")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--rule", choices=sorted(_RULES), default="cf")
    p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("conditional", help="enumerated vs formula conditional probabilities")
    p.add_argument("--n", type=_positive, required=True, help="half the walk length")
    p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    add_format(p)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("lagrange", help="series coefficients of 1/sqrt(1-2az+(a^2-4b^2)z^2)")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--order", type=_nonneg, default=10, help="number of coefficients")
    add_format(p, choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_lagrange)

    p = sub.add_parser("simulate", help="seeded Monte Carlo histogram")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--samples", type=_positive, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rule", choices=sorted(_RULES), default="cf")
    p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-route verification harness")
    p.add_argument("--max-n", type=_nonneg, default=12)
    p.add_argument("--order", type=_positive, default=32)
    p.add_argument("--sections", choices=SECTIONS, default="all")
    p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    p.add_argument("--strict-csaki", action="store_true",
                   help="let the csaki check affect the exit code")
    add_format(p, choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoinwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
