import csv
import io
import json
from fractions import Fraction

import pytest

from coinwalk.cli import main

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
        from coinwalk.distributions import even_distribution

        _, out, _ = run(capsys, "dist", "--n", "4")
        rows = parse_csv(out)
        want = even_distribution(2).mass
        assert [F(r["exact"]) for r in rows] == list(want)

    def test_exact_column_roundtrips(self, capsys):
        _, out, _ = run(capsys, "dist", "--n", "7")
        rows = parse_csv(out)
        total = sum(F(r["exact"]) for r in rows)
        assert total == 1  # lossless num/den strings

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


class TestLagrange:
    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "lagrange", "--a", "1", "--b", "0", "--order", "5")
        assert code == 0
        assert out.strip() == "1,1,1,1,1"

    def test_fraction_arguments(self, capsys):
        _, out, _ = run(capsys, "lagrange", "--a", "5/4", "--b", "3/8", "--order", "3")
        assert out.strip() == "1,5/4,59/32"


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


class TestOracle:
    def test_walk_too_long_for_path_ids(self, capsys, monkeypatch):
        def no_paths(n, rule):
            raise AssertionError("enumeration started")

        monkeypatch.setattr("coinwalk.oracle._enumerate", no_paths)
        code, _, err = run(capsys, "oracle", "--n", "33", "--cap", "40")
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
        assert sum(" cond " in f" {line} " for line in out.splitlines()) == 6
        assert "PASS" in out

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

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
