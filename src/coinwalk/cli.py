"""Command-line front end.

Value tables use the fixed columns n, index, exact, decimal.  The exact column
is the reduced fraction num/den, formatted straight from the integer storage
of the law or polynomial; the decimal column (15 significant digits) exists
only for plotting, and prints inf or -inf for a value beyond float range.
Every csv and json table goes through one writer, `_emit`.  Its csv lines are
csv.writer's for every field printed here: a field is quoted only when it
holds a comma (a verify payload, a route like lagrange[a=5/4,b=3/8]), and no
field holds a quote, CR or LF.
Exit codes: 0 success; 1 verification mismatch, including an exact identity
whose division leaves a remainder; 2 usage error, including a size past this
machine's memory or index range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable

# No command makes a BLAS call, yet OpenBLAS starts a worker thread per core
# when numpy is imported; one thread halves that import.  Set before the
# numpy-backed modules below load, and only when the caller has not set it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import _counts, _law_counts, conditional_positive, law, pgf
from .errors import CoinwalkError, DomainError, InexactDivision
from .lattice import dp_pgf
from .legendre import lagrange_series
from .montecarlo import SimConfig, arcsine_sup_distance, simulate, tv_distance
from .oracle import DEFAULT_CAP, PositivityRule, oracle_conditional, oracle_distribution
from .qpoly import _exact, _terms
from .series import (
    nonneg_series,
    pgf_series,
    pgf_series_even,
    pgf_series_odd,
    pgf_series_odd_ratio,
    pgf_series_ratio,
)
from .verify import SECTIONS, ReportRow, run_verify

_SERIES_BUILDERS = {
    "even": pgf_series_even,
    "odd": pgf_series_odd,
    "odd-ratio": pgf_series_odd_ratio,
    "full": pgf_series,
    "ratio": pgf_series_ratio,
    "csaki": nonneg_series,
}

_RULES = {"cf": PositivityRule.CHUNG_FELLER, "nonneg": PositivityRule.NON_NEGATIVE}


def _report_rows(rows: Iterable[ReportRow]) -> Iterable[tuple]:
    """Verify rows as (route, n, payload, status); a payload is got zero-padded to size.

    Agreeing routes of one length share one polynomial object, so a row whose
    got is the previous row's, at the same size, reuses its payload.  No other
    payload is kept, and the last one is let go before the next is rendered.
    """
    got = size = payload = None
    for row in rows:
        if row.got is not got or row.size != size:
            got, size, payload, dens = row.got, row.size, None, {}
            nums, den = got.numerators
            payload = ",".join([_exact(c, den, dens) for c in nums] + ["0"] * (size - len(nums)))
        yield row.route, row.n, payload, row.status


def _dec(num: int, den: int) -> str:
    """f"{float(Fraction(num, den)):.15g}", with inf/-inf past float range.

    Int true division is correctly rounded, so it is the same float.
    """
    try:
        return f"{num / den:.15g}"
    except OverflowError:
        return "inf" if num > 0 else "-inf"


def _emit(header: tuple[str, ...], rows: Iterable[tuple], fmt: str):
    """Emit `rows`, tuples in `header`'s column order, as csv or as a json list of objects.

    The only table writer.  A csv line is its fields' str joined by commas and
    ended by CRLF, a field quoted only when it holds a comma: csv.writer's
    bytes, since no field printed here holds a quote, CR or LF.
    """
    write = sys.stdout.write
    if fmt == "json":  # json.dumps([dict(zip(header, row)) for row in rows]), a row at a time
        write("[")
        for i, row in enumerate(rows):
            text = json.dumps(dict(zip(header, row)))
            write(", " + text if i else text)
        write("]\n")
    else:
        for row in chain((header,), rows):
            write(",".join([f'"{f}"' if "," in f else f for f in map(str, row)]) + "\r\n")


def _emit_values(tables, fmt: str):
    """Emit (n, nums, den) triples, value j = nums[j] / den, as the value table."""
    dens = {}
    _emit(("n", "index", "exact", "decimal"),
          ((n, j, _exact(c, den, dens), _dec(c, den))
           for n, nums, den in tables
           for j, c in enumerate(nums or (0,))),  # () is the zero polynomial: row n,0,0,0
          fmt)


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


# Fraction turns a decimal exponent into a power of ten before anything reads
# it, so a nine-character argument such as 1e999999 stands for a million-digit
# integer.  Coefficient m of `lagrange` has about m times the argument's
# digits, and turning an int into a str takes time quadratic in its digits:
# 10,000 digits, twice the longest value the tests pass (1e5000), keeps a run at
# the default 10 coefficients near a second.  So the last coefficient may have
# what the default order allows, 9 x 10,000 digits, at any --order.
_EXACT_DIGITS = 10_000
_LAGRANGE_DIGITS = 9 * _EXACT_DIGITS
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _fraction(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    # the value has at most len(text) + |exponent| digits; bound it before it is built
    if len(digits) > len(str(_EXACT_DIGITS)) or len(text) + int(digits or 0) > _EXACT_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_EXACT_DIGITS} digits: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _gib(size: int) -> str:
    """`size` bytes in GiB to three significant digits, also past float range."""
    try:
        return f"{size / 2**30:.3g}"
    except OverflowError:
        exponent, mantissa = divmod(math.log10(size) - 30 * math.log10(2), 1)
        return f"{10**mantissa:.3g}e+{exponent:.0f}"


def _refuse_past_memory(command: str, predicted: int) -> None:
    """Refuse a run whose predicted peak, in bytes, exceeds this machine's physical memory.

    Called before any output: a process that grows by many small allocations
    can be killed before Python sees a MemoryError.
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: only the index range bounds it
        physical = sys.maxsize
    if predicted > physical:
        raise DomainError(f"{command} needs about {_gib(predicted)} GiB, more "
                          f"than this machine's {_gib(physical)} GiB of memory")


# The count and the prefix sum are about n bits, the row's text about 0.3 n
# characters.  tracemalloc read a peak of 3.3-4.0 bytes per toss over the first
# rows of dist --n 200001 and 400001 --cumulative, csv and json; the model
# doubles it for the allocator and for Pythons whose int-to-str holds more.
_DIST_BYTES_PER_TOSS = 8


def cmd_dist(args) -> int:
    """Stream the law of N_n, or its CDF, straight from `_law_counts` to the value table.

    No law is held: each count (or prefix sum) exists while its row is
    written, so the peak stays flat in n.  A size whose predicted peak
    exceeds this machine's physical memory is refused before the header.
    """
    _refuse_past_memory(f"dist --n {args.n}", _DIST_BYTES_PER_TOSS * args.n)
    _emit_values([(args.n, *_law_counts(args.n, args.cumulative))], args.format)
    return 0


# series --which W --order K holds K coefficients of degree up to K whose
# numerators grow to about K bits, so each builder's model is K^3 bytes over a
# divisor plus 40 MiB.  The peaks (ru_maxrss) at K = 256, 512 and 1024 were
# 29.9, 32.7 and 50.7 MiB for even; 32.3, 46.5 and 134.3 for odd; 31.3, 41.5
# and 100.3 for odd-ratio; 32.4, 46.5 and 134.3 for full; 34.2, 56.2 and 190.2
# for csaki; ratio, which takes about 12x the time per doubling, 30.0, 32.9
# and 49.4 MiB at K = 128, 256 and 512.  Each divisor is below the one the
# model would need to meet the builder's largest anchor.
_SERIES_DIVISORS = {"even": 64, "odd": 8, "odd-ratio": 12, "full": 8, "ratio": 8, "csaki": 5}


def _series_bytes(which: str, order: int) -> int:
    return order**3 // _SERIES_DIVISORS[which] + 40 * 2**20


# pgf --n N --method dp peaked (ru_maxrss) at 43.1, 128.3 and 763 MiB at
# N = 512, 1024 and 2048, the most of text and csv: the DP's table and packed
# sites grow toward N^3/11 bytes, so that model is N^3/10 bytes plus 40 MiB.
# With --method closed the law's N//2 + 1 counts of about N bits hold N^2/16
# bytes; text and csv are written a term or a row at a time, and both peaked
# at 29.3, 31.0 and 37.4 MiB at N = 4000, 8000 and 16000, so that model is
# N^2/8 bytes plus 40 MiB.  --method series builds the full series to N + 1.
_PGF_BYTES = {"dp": lambda n: n**3 // 10 + 40 * 2**20,
              "closed": lambda n: n**2 // 8 + 40 * 2**20,
              "series": lambda n: _series_bytes("full", n + 1)}


def cmd_pgf(args) -> int:
    """Print p(n, 0) by one route.

    A dp, closed or series size whose predicted peak exceeds this machine's
    physical memory is refused before anything is built.
    """
    if args.method in _PGF_BYTES:
        _refuse_past_memory(f"pgf --n {args.n} --method {args.method}",
                            _PGF_BYTES[args.method](args.n))
    if args.method == "closed":
        poly = pgf(law(args.n))
    elif args.method == "dp":
        poly = dp_pgf(args.n)
    elif args.method == "series":
        poly = pgf_series(args.n + 1).coeff(args.n)
    else:
        poly = pgf(oracle_distribution(args.n, PositivityRule.CHUNG_FELLER, cap=args.cap))
    if args.format == "text":  # a term at a time: the whole text is never held
        for piece in chain(_terms(poly), ("\n",)):
            sys.stdout.write(piece)
        return 0
    _emit_values([(args.n, *poly.numerators)], args.format)
    return 0


def cmd_series(args) -> int:
    """Print every coefficient of one expansion to --order.

    An order whose predicted peak exceeds this machine's physical memory is
    refused before the series is built.
    """
    _refuse_past_memory(f"series --which {args.which} --order {args.order}",
                        _series_bytes(args.which, args.order))
    series = _SERIES_BUILDERS[args.which](args.order)
    _emit_values(((n, *poly.numerators) for n, poly in enumerate(series.coeffs)),
                 args.format)
    return 0


def cmd_oracle(args) -> int:
    dist = oracle_distribution(args.n, _RULES[args.rule], cap=args.cap)
    _emit_values([(args.n, *_counts(dist))], args.format)
    return 0


def cmd_conditional(args) -> int:
    oracle = oracle_conditional(args.n, cap=args.cap)
    formulas = [conditional_positive(args.n, r) for r in range(len(oracle))]
    _emit(("r", "oracle", "formula", "equal"),
          ((r, str(o), str(f), o == f) for r, (o, f) in enumerate(zip(oracle, formulas))),
          args.format)
    return 0 if list(oracle) == formulas else 1


def cmd_lagrange(args) -> int:
    # coefficient m carries about m times the longer argument's digits (at least one)
    digits = max(1, math.log10(2) * max(max(abs(x.numerator), x.denominator).bit_length()
                                        for x in (args.a, args.b)))
    if (args.order - 1) * digits > _LAGRANGE_DIGITS:
        raise DomainError(f"coefficient {args.order - 1} would have about "
                          f"{(args.order - 1) * digits:.0f} digits, more than {_LAGRANGE_DIGITS}")
    coeffs = lagrange_series(args.a, args.b, args.order)
    if args.format == "text":
        print(",".join(str(c) for c in coeffs))
        return 0
    _emit(("index", "exact", "decimal"),
          ((m, str(c), _dec(c.numerator, c.denominator)) for m, c in enumerate(coeffs)),
          args.format)
    return 0


def cmd_simulate(args) -> int:
    cfg = SimConfig(m=args.m, samples=args.samples, seed=args.seed, rule=_RULES[args.rule])
    hist = simulate(cfg)
    _emit(("index", "count", "freq"),
          ((j, c, _dec(c, args.samples)) for j, c in enumerate(hist)), args.format)
    if cfg.rule is PositivityRule.CHUNG_FELLER:
        notes = []
        if args.m > 0:  # count/m is undefined for the empty walk
            notes.append(f"arcsine sup distance: {arcsine_sup_distance(hist):.6f}")
        if args.m <= args.cap:
            exact = law(args.m)
            notes.append(f"tv distance to exact law: {tv_distance(hist, exact):.6f}")
        print("; ".join(notes), file=sys.stderr)
    return 0


# A process running verify --max-n N --cap 16 peaked (ru_maxrss) at 31.2, 39.2,
# 79.9 and 357.9 MiB at N = 64, 256, 512 and 1024, the most of text, csv and
# json, which are within 0.1% of each other: csv and json hold one payload at
# a time.  Above the interpreter's 30 MiB the peak grows about 6.6x per
# doubling, so the model is N^3/3 bytes plus 48 MiB, the N^3 line through the
# 1024 peak rounded up: above every anchor, and 2.71 GiB at N = 2048.
def _verify_bytes(max_n: int) -> int:
    return max_n**3 // 3 + 48 * 2**20


def cmd_verify(args) -> int:
    """Run the harness and print its rows.

    A --max-n whose predicted peak exceeds this machine's physical memory is
    refused before any row.
    """
    _refuse_past_memory(f"verify --max-n {args.max_n}", _verify_bytes(args.max_n))
    report = run_verify(max_n=args.max_n, order=args.order, sections=args.sections,
                        cap=args.cap, strict_csaki=args.strict_csaki)
    if args.format == "text":
        for row in report.rows:
            print(f"{row.status:>12}  {row.route} n={row.n}")
        verdict = "PASS" if report.passed else "FAIL"
        print(f"verify: {verdict} ({len(report.rows)} checks)")
    else:
        _emit(("route", "n", "payload", "status"), _report_rows(report.rows), args.format)
    unchecked = report.unchecked if report.rows else (args.sections,)
    if unchecked:
        print(f"error: no comparison made by {', '.join(unchecked)}", file=sys.stderr)
    return 1 if report.mismatched else 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Exact laws of the time a fair coin-tossing walk spends positive, "
                    "with cross-verified computation routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("csv", "json"), default="csv"):
        p.add_argument("--format", choices=choices, default=default)

    def add_cap(p, what):
        p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP,
                       help=f"{what}; enumerating n tosses evaluates all 2^n paths, and the "
                            "cap is the only limit on n (default %(default)s)")

    p = sub.add_parser("dist", help="exact law of the positive-step count")
    p.add_argument("--n", type=_nonneg, required=True, help="number of tosses")
    p.add_argument("--cumulative", action="store_true", help="emit the CDF instead")
    add_format(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("pgf", help="probability generating function of the count")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--method", choices=("closed", "dp", "series", "oracle"), default="closed")
    add_cap(p, "largest --n that --method oracle enumerates")
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
    add_cap(p, "largest --n enumerated")
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("conditional", help="enumerated vs formula conditional probabilities")
    p.add_argument("--n", type=_positive, required=True, help="half the walk length")
    add_cap(p, "longest walk (2 --n tosses) enumerated")
    add_format(p)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("lagrange", help="series coefficients of 1/sqrt(1-2az+(a^2-4b^2)z^2)")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--order", type=_nonneg, default=10, help="number of coefficients")
    add_format(p, choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_lagrange)

    p = sub.add_parser("simulate", help="seeded Monte Carlo histogram")
    p.add_argument("--m", type=_nonneg, required=True,
                   help="walk length; a run takes m x samples steps, and only the memory "
                        "of its m + 2 slot histogram limits m")
    p.add_argument("--samples", type=_positive, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rule", choices=sorted(_RULES), default="cf")
    p.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP,
                   help="the tv distance to the exact law is printed only when m <= cap "
                        "(default %(default)s)")
    add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-route verification harness")
    p.add_argument("--max-n", type=_nonneg, default=12,
                   help="walk length; the two-route rows reach 2*max_n (default %(default)s)")
    p.add_argument("--order", type=_positive,
                   help="the last series and csaki length plus one (default --max-n + 1)")
    p.add_argument("--sections", choices=SECTIONS, default="all",
                   help="the rows of the full run whose routes the section names "
                        "(default %(default)s)")
    add_cap(p, "longest walk enumerated; rows past it are skipped:cap")
    p.add_argument("--strict-csaki", action="store_true",
                   help="let the csaki check affect the exit code")
    add_format(p, choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


class _Stdout:
    """Stands in for sys.stdout; once the reader closes the pipe, writes go to devnull.

    A reader that stops early (``coinwalk dist --n 4000 | head -2``) is not an
    error: the command runs to its end and keeps its exit code.
    """

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            self._to_devnull()
            return len(text)

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._to_devnull()

    def _to_devnull(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self.stream.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    stdout = sys.stdout
    sys.stdout = _Stdout(stdout)
    digits = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        sys.set_int_max_str_digits(0)  # exact columns print integers of any length
        return args.func(args)
    except (CoinwalkError, OverflowError) as exc:  # OverflowError: a size past the index range
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InexactDivision) else 2  # a failed identity: disagreement
    except MemoryError as exc:  # a size past this machine's memory; exit 1 means disagreement
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)
        sys.stdout.flush()
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
