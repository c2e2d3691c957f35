import collections
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coinwalk
from coinwalk import cli
from coinwalk.cli import _SERIES_BUILDERS, _dec, _exact, main
from coinwalk.distributions import Distribution, _counts, law
from coinwalk.qpoly import QPoly
from coinwalk.verify import QUARANTINED, SECTIONS, ReportRow, VerifyReport, run_verify

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestDist:
    def test_three_tosses(self, capsys):
        code, out, _ = run(capsys, "dist", "--n", "3")
        rows = parse_csv(out)
        assert code == 0
        assert [(r["index"], r["exact"]) for r in rows] == [
            ("0", "3/8"), ("1", "1/8"), ("2", "1/8"), ("3", "3/8"),
        ]

    def test_zero_tosses(self, capsys):
        code, out, _ = run(capsys, "dist", "--n", "0")
        assert parse_csv(out) == [{"n": "0", "index": "0", "exact": "1", "decimal": "1"}]

    def test_four_tosses_match_formula(self, capsys):
        _, out, _ = run(capsys, "dist", "--n", "4")
        rows = parse_csv(out)
        want = law(4).mass
        assert [F(r["exact"]) for r in rows] == list(want)

    def test_exact_column_roundtrips(self, capsys):
        _, out, _ = run(capsys, "dist", "--n", "7")
        rows = parse_csv(out)
        total = sum(F(r["exact"]) for r in rows)
        assert total == 1  # lossless num/den strings

    def test_cumulative_law_is_held_once(self):
        # the CDF is summed as it is written: no second list of the law's size
        argv = ["dist", "--n", "2001", "--cumulative"]
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            assert main(argv) == 0  # warm-up: lazily built state is not the law's
            tracemalloc.start()
            try:
                main(argv)
                left, peak = tracemalloc.get_traced_memory()
                dist = law(2001)
                held = tracemalloc.get_traced_memory()[0] - left
            finally:
                tracemalloc.stop()
        assert dist.length == 2001
        assert peak <= 1.6 * held

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_law_is_not_held(self, fmt):
        # no law is built: the peak is a few rows' worth, far under the law's size
        argv = ["dist", "--n", "6001", "--cumulative", "--format", fmt]
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            assert main(argv) == 0
            tracemalloc.start()
            try:
                main(argv)
                left, peak = tracemalloc.get_traced_memory()
                dist = law(6001)
                held = tracemalloc.get_traced_memory()[0] - left
            finally:
                tracemalloc.stop()
        assert dist.length == 6001
        assert peak <= 0.25 * held

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cumulative", [False, True], ids=["mass", "cdf"])
    def test_stream_prints_the_law(self, capsys, fmt, cumulative):
        # the streamed table is the one the law's own integer view prints
        for n in range(71):
            argv = ["dist", "--n", str(n), "--format", fmt] + ["--cumulative"] * cumulative
            code, out, err = run(capsys, *argv)
            cli._emit_values([(n, *_counts(law(n), cumulative))], fmt)
            assert (code, out, err) == (0, capsys.readouterr().out, ""), n

    def test_stream_checks_the_masses(self, capsys, monkeypatch):
        # weights that do not sum to the denominator fail after the last row: exit 2
        monkeypatch.setattr("coinwalk.distributions._weights",
                            lambda k: iter([1] * (k + 1)))
        code, out, err = run(capsys, "dist", "--n", "6")
        assert code == 2
        assert len(parse_csv(out)) == 7
        assert err == "error: masses sum to 1/16, not 1\n"

    @pytest.mark.parametrize("n", [str(2**63), str(10**12), str(10**400)])
    def test_size_past_memory_is_refused_before_the_header(self, n):
        proc = _run_capped("dist", "--n", n)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: dist --n {n} needs about ")
        assert proc.stderr.endswith(" GiB of memory\n") and proc.stderr.count("\n") == 1

    def test_predicted_size_prints_past_float_range(self):
        assert cli._gib(3 * 2**29) == "1.5"
        assert cli._gib(8 * 10**400) == "7.45e+391"

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "dist", "--n", "2", "--format", "json")
        rows = json.loads(out)
        assert rows[0]["exact"] == "1/2"

    def test_cumulative(self, capsys):
        _, out, _ = run(capsys, "dist", "--n", "3", "--cumulative")
        rows = parse_csv(out)
        assert [r["exact"] for r in rows] == ["3/8", "1/2", "5/8", "1"]


class TestPgf:
    def test_series_method_text(self, capsys):
        code, out, _ = run(capsys, "pgf", "--n", "3", "--method", "series")
        assert code == 0
        assert out.strip() == "3/8 + 1/8 q + 1/8 q^2 + 3/8 q^3"

    @pytest.mark.parametrize("method", ["closed", "dp", "series", "oracle"])
    def test_methods_agree(self, capsys, method):
        _, out, _ = run(capsys, "pgf", "--n", "5", "--method", method)
        assert out.strip() == "5/16 + 1/16 q + 1/8 q^2 + 1/8 q^3 + 1/16 q^4 + 5/16 q^5"

    def test_csv_format(self, capsys):
        _, out, _ = run(capsys, "pgf", "--n", "2", "--format", "csv")
        rows = parse_csv(out)
        assert [r["exact"] for r in rows] == ["1/2", "0", "1/2"]

    @pytest.mark.parametrize("n,method", [("1000000", "dp"), ("100000000", "closed"),
                                          ("1000000", "series")])
    def test_size_past_memory_is_refused_before_any_output(self, n, method):
        proc = _run_capped("pgf", "--n", n, "--method", method)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: pgf --n {n} --method {method} needs about ")
        assert proc.stderr.endswith(" GiB of memory\n") and proc.stderr.count("\n") == 1

    def test_text_is_written_a_term_at_a_time(self):
        # the text form holds one term at a time, as the csv table holds one row
        peaks = {}
        for fmt in ("csv", "text"):
            argv = ["pgf", "--n", "4000", "--format", fmt]
            with redirect_stdout(_CountingSink()) as sink:
                assert main(argv) == 0  # warm-up: lazily built state is not the text's
                tracemalloc.start()
                try:
                    main(argv)
                    peaks[fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert sink.chars > 2 * 4_800_000  # two runs of about 4.8 MB each
        assert peaks["text"] < 1.5 * peaks["csv"]

    def test_memory_model_covers_the_measured_peaks(self):
        # whole-process peaks (ru_maxrss, KiB) of pgf --n N --method M, the most
        # of text and csv
        for method, n, peak in (("dp", 512, 44_180), ("dp", 1024, 131_352),
                                ("dp", 2048, 781_316), ("closed", 4000, 30_008),
                                ("closed", 8000, 31_784), ("closed", 16000, 38_324),
                                ("series", 255, 33_036), ("series", 511, 47_448),
                                ("series", 1023, 137_352)):
            assert cli._PGF_BYTES[method](n) >= peak * 1024


class TestLagrange:
    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "lagrange", "--a", "1", "--b", "0", "--order", "5")
        assert code == 0
        assert out.strip() == "1,1,1,1,1"

    def test_fraction_arguments(self, capsys):
        _, out, _ = run(capsys, "lagrange", "--a", "5/4", "--b", "3/8", "--order", "3")
        assert out.strip() == "1,5/4,59/32"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("a,inf", [("1e400", "inf"), ("-1e400", "-inf")])
    def test_decimal_past_float_range(self, capsys, fmt, a, inf):
        code, out, err = run(capsys, "lagrange", f"--a={a}", "--b", "0", "--order", "2",
                             "--format", fmt)
        assert code == 0 and err == ""
        rows = parse_csv(out) if fmt == "csv" else json.loads(out)
        assert [(r["exact"], r["decimal"]) for r in rows] == [("1", "1"), (str(F(a)), inf)]

    def test_decimal_past_float_range_no_traceback(self):
        proc = subprocess.run([sys.executable, "-m", "coinwalk.cli", "lagrange", "--a=-1e400",
                               "--b", "0", "--order", "2", "--format", "csv"],
                              capture_output=True, text=True, env=_coinwalk_env(), timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.endswith(",-inf\n")


# any int, many past 3000 bits, some with a long run of trailing zero bits
_NUMS = st.builds(lambda a, k: a << k,
                  st.one_of(st.integers(), st.integers(-(2**3100), 2**3100)),
                  st.integers(0, 64))
# 2^a * b: a large odd part b takes the generic gcd branch
_DENS = st.builds(lambda a, b: 2**a * b, st.integers(0, 3100),
                  st.one_of(st.integers(min_value=1), st.integers(1, 2**3100)))


class TestValueColumns:
    @given(_NUMS, _DENS)
    def test_exact_is_the_reduced_fraction(self, num, den):
        assert _exact(num, den, {}) == str(F(num, den))

    @given(st.lists(_NUMS, max_size=8), _DENS)
    def test_exact_with_a_shared_memo(self, nums, den):
        dens = {}
        assert [_exact(c, den, dens) for c in nums] == [str(F(c, den)) for c in nums]

    @given(_NUMS, _DENS)
    def test_decimal_is_the_float(self, num, den):
        try:
            want = f"{float(F(num, den)):.15g}"
        except OverflowError:
            want = "inf" if num > 0 else "-inf"
        assert _dec(num, den) == want

    @pytest.mark.parametrize("argv", [
        ["dist"], ["dist", "--cumulative"], ["oracle"], ["pgf", "--format", "csv"],
        ["dist", "--format", "json"],
    ], ids=" ".join)
    def test_no_fraction_per_row(self, capsys, argv):
        built = []
        original = vars(F)["__new__"]

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original.__func__(cls, *args, **kwargs)

        counts = []
        F.__new__ = staticmethod(counting)
        try:
            for n in ("6", "13"):
                built.clear()
                assert main([*argv, "--n", n]) == 0
                counts.append(len(built))
        finally:
            F.__new__ = original
        capsys.readouterr()
        assert counts[0] == counts[1]  # as many Fractions for 14 rows as for 7


class _CountingSink:
    """A stdout that keeps only how many characters were written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def _emitted_csv(header, rows):
    out = io.StringIO(newline="")
    with redirect_stdout(out):
        cli._emit(header, rows, "csv")
    return out.getvalue()


def _csv_writer_bytes(header, rows):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# the characters of every field the command line prints: digits, fractions,
# decimals such as -1e+300 and inf, payloads, routes, statuses
_CSV_TEXT = st.text(alphabet="0123456789/-+.,=[]@:_abefinorsz", max_size=12)


class TestCsvWriter:
    # csv.writer is the reference: the one line writer must give its bytes
    HEADER = ("route", "n", "payload", "status")

    def test_crafted_rows(self):
        rows = [("lagrange[a=5/4,b=3/8]", 3, "1/2,0,-3/7", True),
                ("oracle", 6, "", "skipped:cap"),
                ("even", 0, "1", False),
                ("r", -12, "4001/8192", "1e+300")]
        assert _emitted_csv(self.HEADER, rows) == _csv_writer_bytes(self.HEADER, rows)

    @given(st.lists(st.tuples(_CSV_TEXT, st.integers(), st.booleans(), _CSV_TEXT), max_size=5))
    def test_drawn_rows(self, rows):
        assert _emitted_csv(self.HEADER, rows) == _csv_writer_bytes(self.HEADER, rows)

    def test_verify_report_reads_back(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "64", "--cap", "16", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert code == 0 and len(rows) > 1
        assert any("," in field for row in rows[1:] for field in row)  # quoted payloads
        # compared by digest: pytest's diff of two 3 MB reports would take minutes
        digest = [hashlib.sha256(text.encode()).hexdigest()
                  for text in (_csv_writer_bytes(rows[0], rows[1:]), out)]
        assert digest[0] == digest[1]


class TestLongIntegers:
    @pytest.fixture
    def default_digit_limit(self):
        # CPython's default limit on int <-> str conversion, whatever the environment says
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        assert sys.get_int_max_str_digits() == 4300  # main restores it
        sys.set_int_max_str_digits(old)

    def test_exact_value_past_the_digit_limit(self, capsys, default_digit_limit):
        code, out, err = run(capsys, "lagrange", "--a", "1e5000", "--b", "0", "--order", "2")
        assert code == 0 and err == ""
        first, second = out.strip().split(",")
        assert first == "1" and second == "1" + "0" * 5000

    def test_argument_past_the_digit_limit_is_a_usage_error(self, capsys, default_digit_limit):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--n", "1" * 4400])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [("--a", "1e999999"), ("--b", "-2.5E-999_999"),
                                            ("--a", "1e" + "9" * 5000)])
    def test_exponent_past_the_digit_bound_is_a_usage_error(self, capsys, name, value):
        # refused before Fraction builds the power of ten
        exact = {"--a": "0", "--b": "0", name: value}
        with pytest.raises(SystemExit) as exc:
            main(["lagrange", f"--a={exact['--a']}", f"--b={exact['--b']}", "--order", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {name}: more than 10000 digits" in err


class TestLagrangeSize:
    @pytest.mark.parametrize("argv", [
        ("--a", "1e9990", "--b", "0", "--order", "100"),
        ("--a", "0", "--b", "1e9990", "--order", "11"),
        ("--a=1e-5000", "--b", "0", "--order", "20"),
    ], ids=["a", "b", "denominator"])
    def test_order_times_digits_past_the_bound(self, capsys, argv):
        # the last coefficient would carry more than the default order's 9 x 10,000 digits
        code, out, err = run(capsys, "lagrange", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: coefficient ") and err.endswith(", more than 90000\n")

    @pytest.mark.parametrize("argv", [("--a", "1e9990", "--b", "0", "--order", "10"),
                                      ("--a", "1e5000", "--b", "0", "--order", "2"),
                                      ("--a", "1e3", "--b", "1e-3", "--order", "1000")])
    def test_within_the_bound(self, capsys, argv):
        code, out, _ = run(capsys, "lagrange", *argv)
        assert code == 0
        assert out.count(",") == int(argv[-1]) - 1


def _fresh(code, **env):
    """Run `code` in a new interpreter with OPENBLAS_NUM_THREADS unset, then `env`."""
    environ = _coinwalk_env()
    environ.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**environ, **env}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartup:
    def test_package_import_loads_no_numpy(self):
        out = _fresh("import os, sys; before = dict(os.environ); import coinwalk; "
                     "print('numpy' in sys.modules, dict(os.environ) == before, "
                     "coinwalk.simulate.__module__, 'numpy' in sys.modules)")
        assert out.split() == ["False", "True", "coinwalk.montecarlo", "True"]

    def test_cli_starts_numpy_with_one_blas_thread(self):
        out = _fresh("import os, sys; import coinwalk.cli; "
                     "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)")
        assert out.split() == ["1", "True"]
        if sys.platform.startswith("linux"):
            out = _fresh("import coinwalk.cli; print(open('/proc/self/status').read())")
            assert "\nThreads:\t1\n" in out

    def test_caller_sets_the_blas_threads(self):
        out = _fresh("import os; import coinwalk.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                     OPENBLAS_NUM_THREADS="3")
        assert out == "3\n"


class TestConditional:
    def test_all_equal(self, capsys):
        code, out, _ = run(capsys, "conditional", "--n", "3")
        rows = parse_csv(out)
        assert code == 0
        assert all(r["equal"] == "True" for r in rows)
        assert [r["oracle"] for r in rows] == ["0", "1/3", "2/3", "1"]


class TestSeries:
    ZERO_ROW = {"n": "0", "index": "0", "exact": "0", "decimal": "0"}

    def test_zero_coefficients_get_a_row_csv(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "odd", "--order", "3")
        rows = parse_csv(out)
        assert code == 0
        assert [r["n"] for r in rows] == ["0", "1", "1", "2"]
        assert rows[0] == self.ZERO_ROW
        assert rows[3] == dict(self.ZERO_ROW, n="2")

    def test_zero_coefficients_get_a_row_json(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "odd", "--order", "3",
                           "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert [r["n"] for r in rows] == [0, 1, 1, 2]
        assert rows[0] == {"n": 0, "index": 0, "exact": "0", "decimal": "0"}
        assert rows[3] == {"n": 2, "index": 0, "exact": "0", "decimal": "0"}

    def test_size_past_memory_is_refused_before_any_output(self):
        proc = _run_capped("series", "--order", "1000000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: series --which full --order 1000000 needs about ")
        assert proc.stderr.endswith(" GiB of memory\n") and proc.stderr.count("\n") == 1

    def test_memory_model_covers_the_measured_peaks(self):
        # whole-process peaks (ru_maxrss, KiB) of series --which W --order K
        for which, peaks in (("even", (30_580, 33_520, 51_908)),
                             ("odd", (33_064, 47_628, 137_540)),
                             ("odd-ratio", (32_036, 42_508, 102_752)),
                             ("full", (33_188, 47_632, 137_504)),
                             ("csaki", (35_008, 57_588, 194_724))):
            for order, peak in zip((256, 512, 1024), peaks):
                assert cli._series_bytes(which, order) >= peak * 1024
        # ratio takes about 12x the time per doubling: measured to 512
        for order, peak in ((128, 30_764), (256, 33_652), (512, 50_548)):
            assert cli._series_bytes("ratio", order) >= peak * 1024
        assert set(cli._SERIES_DIVISORS) == set(_SERIES_BUILDERS)


class TestOracle:
    def test_walk_past_32_steps_limited_by_cap(self, capsys, monkeypatch):
        def no_paths(n, rule):
            raise AssertionError("enumeration started")

        monkeypatch.setattr("coinwalk.oracle._enumerate", no_paths)
        code, _, err = run(capsys, "oracle", "--n", "33", "--cap", "32")
        assert code == 2
        assert "n=33" in err

    def test_nonneg_rule(self, capsys):
        _, out, _ = run(capsys, "oracle", "--n", "1", "--rule", "nonneg")
        rows = parse_csv(out)
        assert [r["exact"] for r in rows] == ["0", "1/2", "1/2"]

    def test_cap_produces_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "10", "--cap", "4")
        assert code == 2
        assert "cap" in err


class TestSimulate:
    def test_histogram_totals(self, capsys):
        code, out, err = run(capsys, "simulate", "--m", "6", "--samples", "500", "--seed", "3")
        rows = parse_csv(out)
        assert code == 0
        assert sum(int(r["count"]) for r in rows) == 500
        assert "arcsine" in err

    def test_zero_length_walk(self, capsys):
        code, out, err = run(capsys, "simulate", "--m", "0", "--samples", "3")
        assert code == 0
        assert parse_csv(out) == [{"index": "0", "count": "3", "freq": "1"}]
        assert "arcsine" not in err and "tv distance to exact law: 0.000000" in err


class TestVerify:
    def test_cond_section(self, capsys):
        code, out, _ = run(capsys, "verify", "--sections", "cond", "--max-n", "6")
        assert code == 0
        assert sum(" cond " in f" {line} " for line in out.splitlines()) == 3
        assert "PASS" in out

    def test_route_that_compared_nothing(self, capsys):
        # every cond row is skipped by the cap: no PASS, and exit 2 rather than 1
        code, out, err = run(capsys, "verify", "--sections", "cond", "--max-n", "5", "--cap", "0")
        assert code == 2
        assert out.splitlines()[-1] == "verify: FAIL (2 checks)"
        assert err == "error: no comparison made by cond\n"

    @pytest.mark.parametrize("max_n", ["0", "1"])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_section_without_rows(self, capsys, fmt, max_n):
        # cond row n is a walk of 2n steps, n >= 1: below --max-n 2 it makes no row,
        # which is no PASS
        code, out, err = run(capsys, "verify", "--sections", "cond", "--max-n", max_n,
                             "--format", fmt)
        assert code == 2
        header = "route,n,payload,status\r\n"
        assert out == ("verify: FAIL (0 checks)\n" if fmt == "text" else header)
        assert err == "error: no comparison made by cond\n"

    def test_smallest_full_run_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--sections", "all", "--max-n", "1")
        assert code == 0 and err == ""
        assert out.splitlines()[-1].startswith("verify: PASS (")

    def test_order_defaults_to_max_n_plus_one(self, capsys):
        argv = ["verify", "--max-n", "40", "--cap", "8", "--format", "json"]
        assert run(capsys, *argv) == run(capsys, *argv, "--order", "41")

    def test_even_section_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--sections", "even", "--max-n", "10", "--order", "12")
        assert code == 0

    def test_all_sections_pass_with_finding(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--order", "8")
        assert code == 0
        assert "mismatch@0  ratio-form" in out  # reported, not fatal

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "verify", "--sections", "odd", "--max-n", "5",
                           "--order", "8", "--format", "csv")
        rows = parse_csv(out)
        assert code == 0
        payload = rows[0]["payload"].split(",")
        assert sum(F(x) for x in payload) == 1  # exact strings round-trip

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--sections", "legendre", "--max-n", "4",
                           "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("max_n", [str(10**20), str(10**6)])
    def test_size_past_memory_is_refused_before_any_row(self, max_n):
        proc = _run_capped("verify", "--max-n", max_n, "--format", "csv")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: verify --max-n {max_n} needs about ")
        assert proc.stderr.endswith(" GiB of memory\n") and proc.stderr.count("\n") == 1

    def test_memory_model_covers_the_measured_peaks(self):
        # whole-process peaks (ru_maxrss, KiB) of verify --max-n N --cap 16; the
        # guard must not refuse N = 2048 on an 8 GB machine, where the model says it fits
        for max_n, peak in ((64, 31_900), (256, 40_184), (512, 81_772), (1024, 366_512)):
            assert cli._verify_bytes(max_n) >= peak * 1024
        assert cli._verify_bytes(2048) < 8 * 10**9


class TestBenchmarkOkRows:
    # the (route, n) rows the benchmark's verify checks require to stay ok, read only
    ROWS = json.loads(
        (Path(__file__).parents[1] / "bench" / "verify_ok_rows.json").read_text())

    @pytest.mark.parametrize("argv", sorted(ROWS))
    def test_every_listed_row_is_ok(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        ok = {(row["route"], row["n"]) for row in json.loads(out) if row["status"] == "ok"}
        want = {(route, n) for route, ns in self.ROWS[argv].items() for n in ns}
        assert want and not want - ok


class TestVerifyRendering:
    def test_text_renders_nothing_and_json_each_run_of_rows_once(self, capsys, monkeypatch):
        # rows hold polynomials; only the csv and json writers render them, once
        # per run of consecutive rows holding the same polynomial object at one size
        calls = []
        exact = cli._exact
        monkeypatch.setattr(cli, "_exact", lambda *args: calls.append(args) or exact(*args))
        argv = ["verify", "--max-n", "8", "--order", "9"]
        assert main(argv) == 0
        assert calls == []
        assert main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        rows = run_verify(max_n=8, order=9).rows
        runs = [row for last, row in zip((None, *rows), rows)
                if last is None or row.got is not last.got or row.size != last.size]
        assert len(calls) == sum(len(row.got.numerators[0]) for row in runs) > 0

    def test_payloads_are_not_kept(self):
        # the writer's consumer drops each row as it comes, so the peak is what the
        # rows' renderer holds: one payload as it is built, not the report's
        rows = run_verify(max_n=192, cap=8).rows
        longest = max(len(payload) for _, _, payload, _ in cli._report_rows(rows))
        tracemalloc.start()
        try:
            collections.deque(cli._report_rows(rows), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * longest


class TestPinnedOutput:
    # sha256 prefixes of repr((stdout, stderr, exit code)) through cli.main; a
    # refactor of the harness or its formatter must leave every byte alone
    PINS = {
        "verify --max-n 64 --order 65 --cap 16 --format json": "cc74e1f67000f20d",
        "verify --max-n 22 --order 23 --cap 22 --format json": "470c2e1479002911",
        "verify --max-n 30 --order 12 --cap 10": "0381c39f8ce39f58",
        "verify --max-n 12 --order 14 --format csv": "f4c354cb00061ccb",
        "verify --max-n 9 --order 10 --sections csaki --strict-csaki": "c94d5be6e2819fc6",
        # value tables: large laws, a CDF, pgf, negative values, zero-polynomial rows
        "dist --n 4000": "e6c275b777da31cc",
        "dist --n 4001 --cumulative": "a6795f4b2e2fd814",
        "dist --n 41 --cumulative --format json": "e690e95d032ab689",
        "pgf --n 10 --format csv": "183745b949f98ee7",
        "series --which ratio --order 12": "87c12546b3a0006e",
        "series --which odd --order 3": "133c7554a9fb389e",
        "oracle --n 9 --rule nonneg --format json": "b5ef758075122a0a",
        "simulate --m 24 --samples 1000 --seed 7": "e271be0c03fcc3ae",
        # the simulate benchmark's two argvs, and an odd length under the
        # non-negative rule whose last block is partial
        "simulate --m 1000 --samples 200000 --seed 1": "2439bcb6fae05034",
        "simulate --m 24 --samples 100000 --seed 1": "d4a2786d4f0a8ddf",
        "simulate --m 1001 --samples 70000 --seed 5 --rule nonneg": "c221b3c673e1d056",
        "lagrange --a 1 --b 1/2 --order 6 --format csv": "12b9e8997af230d9",
        # every series builder, far enough out that each engine op is exercised
        "series --which csaki --order 60": "0938195ab8e7ffea",
        # small orders, where the builder's one extra term and its shift_down meet
        "series --which csaki --order 1": "0c4acecfc332bbf9",
        "series --which csaki --order 2": "130bee13925caf2b",
        "series --which csaki --order 7": "6a05f721fee069c5",
        "series --which even --order 60": "d526ae9e92a03d01",
        "series --which full --order 60": "e3ccb44c260c7be5",
        "series --which odd --order 60": "054bc2adb4901122",
        "series --which odd-ratio --order 60": "054bc2adb4901122",
        "series --which ratio --order 60": "3de04d71e93ea9bb",
        # csv with a bool column, under the cf rule, and with empty skipped:cap payloads
        "conditional --n 6": "522c0a455486a5f2",
        "oracle --n 9": "0aaba9a491e98cb5",
        "verify --max-n 10 --cap 4 --format csv": "c483b053fa00ac98",
    }

    @pytest.mark.parametrize("argv", sorted(PINS))
    def test_output_unchanged(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        digest = hashlib.sha256(repr((out, err, code)).encode()).hexdigest()[:16]
        assert digest == self.PINS[argv]


class TestUsageErrors:
    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--n", "-3"])
        assert exc.value.code == 2

    def test_zero_denominator_fraction(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lagrange", "--a", "1/0", "--b", "1"])
        assert exc.value.code == 2
        assert "1/0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    def test_seed_outside_64_bits(self, capsys, seed):
        # these used to wrap mod 2^64 into the histogram of another seed
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--m", "4", "--samples", "10", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "simulate", "--m", "4", "--samples", "10",
                           "--seed", str(2**64 - 1))
        assert code == 0
        assert sum(int(r["count"]) for r in parse_csv(out)) == 10

    @pytest.mark.parametrize("m", [2**59, 2**60, 2**62, 2**63 - 1])
    def test_walk_too_long_for_a_histogram(self, capsys, m):
        # refused by SimConfig, or by simulate when the histogram allocation
        # fails (2^59 slots of int64 ask for 4 EiB and fail at once)
        code, out, err = run(capsys, "simulate", "--m", str(m), "--samples", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "--n", "1000000000000", "--cap", "2000000000000"),
        ("conditional", "--n", "1000000000000", "--cap", "3000000000000"),
    ], ids=["oracle", "conditional"])
    def test_walk_too_long_to_enumerate(self, capsys, argv):
        # the joint tally of 2(n+2)^2 int64 slots cannot exist; numpy would raise ValueError
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv,builder", [
        # sizes the memory models let through: larger ones are refused before
        # the series builder, dp_pgf or run_verify
        (("series", "--order", "1024"), "series"),
        (("pgf", "--n", "2048", "--method", "dp"), "dp_pgf"),
        (("verify", "--max-n", "1024"), "run_verify"),
    ])
    def test_memory_error_is_a_usage_error(self, capsys, monkeypatch, argv, builder):
        # exit 1 means "routes disagree"; a size past memory is exit 2, with no traceback
        def exhausted(*args, **kwargs):
            raise MemoryError

        if builder == "series":
            monkeypatch.setitem(_SERIES_BUILDERS, "full", exhausted)
        else:
            monkeypatch.setattr(cli, builder, exhausted)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: out of memory\n"

    def test_failed_identity_is_a_disagreement(self, capsys, monkeypatch):
        # a law(4) with 1/8 of its mass moved from N = 0 to N = 2 is still a law, but
        # breaks the three-term identity's exact division: exit 1, not a usage error
        monkeypatch.setattr("coinwalk.verify.law", lambda m: Distribution.from_counts(
            (2, 0, 3, 0, 3), 8) if m == 4 else law(m))
        code, out, err = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        assert out == ""
        assert err == ("error: (1 + 3 q + 7/2 q^2 + 3 q^3 + 3/2 q^4) is not divisible by "
                       "(1 + q + q^2 + q^3); remainder -1/2 + 1/2 q^2\n")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def _coinwalk_env():
    src = os.path.dirname(os.path.dirname(coinwalk.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_capped(*argv):
    """Run `coinwalk *argv` in a child whose address space is capped at 1 GiB.

    A size whose up-front refusal is lost then fails the caller's test
    (MemoryError's message, or the timeout) instead of exhausting the machine.
    """
    pytest.importorskip("resource")
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from coinwalk.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=_coinwalk_env(), timeout=60)


class TestClosedStdout:
    # each output is larger than a pipe buffer, so closing early always breaks the pipe
    @pytest.mark.parametrize("argv,first", [
        (["dist", "--n", "1000"], b"n,index,exact,decimal\r\n"),
        (["verify", "--max-n", "40", "--order", "41", "--cap", "8", "--format", "json"],
         b'[{"route": "dp", "n": 0'),
    ], ids=["dist", "verify"])
    def test_reader_closes_early(self, argv, first):
        proc = subprocess.Popen([sys.executable, "-m", "coinwalk.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_coinwalk_env())
        head = proc.stdout.read(len(first))
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert head == first
        assert err == b""

    def test_verify_keeps_its_verdict(self, monkeypatch):
        failing = VerifyReport(rows=(ReportRow("dp", 0, QPoly((1,)), 1, "mismatch@0"),) * 1000)
        monkeypatch.setattr("coinwalk.cli.run_verify", lambda **kwargs: failing)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(["verify", "--format", "json"]) == 1


class TestPythonDashM:
    def test_runs_the_command_line(self, capsys):
        proc = subprocess.run([sys.executable, "-m", "coinwalk", "dist", "--n", "3"],
                              capture_output=True, env=_coinwalk_env(), timeout=60)
        code, out, _ = run(capsys, "dist", "--n", "3")
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode() and proc.stderr == b""

    def test_usage_error_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "coinwalk", "dist", "--n", "-1"],
                              capture_output=True, text=True, env=_coinwalk_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            "coinwalk dist: error: argument --n: must be non-negative")


def _grid():
    sizes, orders, caps = ("0", "1", "2"), ("0", "1", "2"), ("0", "1")
    for n, cumulative in itertools.product(sizes, ([], ["--cumulative"])):
        yield ["dist", "--n", n, *cumulative]
    for n, method, cap in itertools.product(sizes, ("closed", "dp", "series", "oracle"), caps):
        yield ["pgf", "--n", n, "--method", method, "--cap", cap]
    for which, order in itertools.product(("even", "odd", "odd-ratio", "full", "ratio",
                                           "csaki"), orders):
        yield ["series", "--which", which, "--order", order]
    for n, rule, cap in itertools.product(sizes, ("cf", "nonneg"), caps):
        yield ["oracle", "--n", n, "--rule", rule, "--cap", cap]
    for n, cap in itertools.product(sizes, caps):
        yield ["conditional", "--n", n, "--cap", cap]
    for (a, b), order in itertools.product(
            [("0", "0"), ("1", "1/2"), ("-1", "1/2"), ("0", "1/2"), ("1/0", "1"), ("0", "1/0")],
            orders):
        yield ["lagrange", "--a", a, "--b", b, "--order", order]
    for m, samples, rule, cap in itertools.product(sizes, sizes, ("cf", "nonneg"), caps):
        yield ["simulate", "--m", m, "--samples", samples, "--rule", rule, "--cap", cap]
    for sections, n, order, cap in itertools.product(SECTIONS, sizes, orders, caps):
        yield ["verify", "--sections", sections, "--max-n", n, "--order", order, "--cap", cap,
               "--format", "json"]


class TestNoTraceback:
    @pytest.mark.parametrize("argv", list(_grid()), ids=" ".join)
    def test_small_arguments(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert argv[0] in ("verify", "conditional")
            if argv[0] == "verify":
                assert any(row["status"].startswith("mismatch")
                           and row["route"] not in QUARANTINED for row in json.loads(out))
            else:
                assert any(row["equal"] == "False" for row in parse_csv(out))

    @pytest.mark.parametrize("argv", [
        ["dist", "--n", str(2**63)],
        ["pgf", "--n", str(2**63)],
        ["pgf", "--n", str(2**63), "--method", "closed"],
        ["pgf", "--n", str(2**63), "--method", "series"],
        ["series", "--order", str(2**63)],
        ["pgf", "--n", str(10**20), "--method", "dp"],
    ], ids=" ".join)
    def test_size_past_index_range(self, argv):
        # OverflowError from a size no index can hold is a usage error, not a
        # disagreement; refused up front, before memory runs out
        proc = _run_capped(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert "out of memory" not in proc.stderr


_SMALL = st.integers(0, 70).map(str)


@st.composite
def _counting_argv(draw):
    """A small simulate, oracle or conditional command line, in any format."""
    command = draw(st.sampled_from(["simulate", "oracle", "conditional"]))
    rule = ["--rule", draw(st.sampled_from(["cf", "nonneg"]))]
    if command == "simulate":
        argv = ["--m", draw(_SMALL), "--samples", draw(_SMALL),
                "--seed", str(draw(st.integers(0, 2**64 - 1))), *rule]
    else:
        argv = ["--n", draw(_SMALL), *(rule if command == "oracle" else [])]
    return [command, *argv, "--cap", str(draw(st.integers(0, 12))),
            "--format", draw(st.sampled_from(["csv", "json"]))]


_TINY = st.integers(-1, 12).map(str)  # -1 is a usage error


@st.composite
def _exact_argv(draw):
    """A small dist, pgf, series, lagrange or verify command line, in any format."""
    command = draw(st.sampled_from(["dist", "pgf", "series", "lagrange", "verify"]))
    formats = ["csv", "json"] if command in ("dist", "series") else ["text", "csv", "json"]
    if command == "dist":
        argv = ["--n", draw(st.integers(-1, 70).map(str)),
                *(["--cumulative"] if draw(st.booleans()) else [])]
    elif command == "pgf":
        argv = ["--n", draw(_TINY), "--method",
                draw(st.sampled_from(["closed", "dp", "series", "oracle"])), "--cap", draw(_TINY)]
    elif command == "series":
        argv = ["--which", draw(st.sampled_from(sorted(_SERIES_BUILDERS))), "--order", draw(_TINY)]
    elif command == "lagrange":
        fraction = st.fractions(-3, 3, max_denominator=6).map(str)
        # --a=-1/2: as a separate word, argparse would read -1/2 as an option
        argv = ["--a=" + draw(fraction), "--b=" + draw(fraction), "--order", draw(_TINY)]
    else:
        argv = ["--sections", draw(st.sampled_from(SECTIONS)), "--max-n", draw(_TINY),
                "--order", draw(_TINY), "--cap", draw(_TINY),
                *(["--strict-csaki"] if draw(st.booleans()) else [])]
    return [command, *argv, "--format", draw(st.sampled_from(formats))]


def _verify_rows(text, fmt):
    """(route, status) of each row of a verify report in `fmt`."""
    if fmt == "json":
        return [(row["route"], row["status"]) for row in json.loads(text)]
    if fmt == "csv":
        return [(row["route"], row["status"]) for row in parse_csv(text)]
    return [tuple(line.split()[1::-1]) for line in text.splitlines()[:-1]]


def _main_captured(argv):
    """(exit code, stdout, stderr) of main(argv); an argparse usage error exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_counting_argv())
    def test_counting_commands(self, argv):
        code, text, err = _main_captured(argv)
        assert code in (0, 2)
        assert "Traceback" not in err
        if argv[0] == "simulate" and code == 0:
            rows = json.loads(text) if argv[-1] == "json" else parse_csv(text)
            assert sum(int(row["count"]) for row in rows) == int(argv[argv.index("--samples") + 1])

    @settings(max_examples=150, deadline=None)
    @given(_exact_argv())
    def test_exact_commands(self, argv):
        code, out, err = _main_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:  # a real mismatch, outside the quarantined routes
            assert argv[0] == "verify"
            assert any(status.startswith("mismatch") and route not in QUARANTINED
                       for route, status in _verify_rows(out, argv[-1]))
