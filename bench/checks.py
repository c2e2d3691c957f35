"""Correctness checks of the CLI's outputs, independent of the coinwalk package.

Each check takes one CLI call (its argv, exit code and stdout, plus the
stdout of any untimed extra call) and either returns what it measured in the
output or raises `CheckFailed`.  The reference values come from this file
alone: closed-form masses from ``math.comb``, a plain-Python splitmix64 and
walk recount, and the arcsine and total-variation distances.  Nothing here
imports coinwalk, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

#: (route, n) pairs that are ``ok`` in the verify report of the code that
#: defined this benchmark, keyed by the verify argv joined with spaces
VERIFY_OK = {
    key: {(route, n) for route, ns in routes.items() for n in ns}
    for key, routes in json.loads(
        (Path(__file__).with_name("verify_ok_rows.json")).read_text()).items()
}

#: verify routes whose failure is a finding, not a gate (as in coinwalk.verify)
QUARANTINED = frozenset({"csaki", "ratio-form"})

#: verify routes whose ok payload is the exact law of N_n
LAW_ROUTES = frozenset({
    "dp", "series", "series-even", "series-odd", "series-odd-ratio", "oracle", "legendre",
    "identity-ratio", "identity-derivative", "identity-three-term",
    "identity-parity-split", "partial-sums",
})

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class CheckFailed(Exception):
    """The output of an op is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def law_mass(m: int, j: int) -> Fraction:
    """P(N_m = j) for the positive-step count of m fair tosses (tie rule)."""
    n, odd = divmod(m, 2)
    if not odd:
        if j % 2:
            return Fraction(0)
        r = j // 2
        return Fraction(math.comb(2 * r, r) * math.comb(2 * n - 2 * r, n - r), 4**n)
    r = (j + 1) // 2  # j = 2r or j = 2r - 1
    weight = math.comb(2 * r, r) * math.comb(2 * n + 2 - 2 * r, n + 1 - r)
    factor = n - r + 1 if j % 2 == 0 else r
    return Fraction(weight * factor, 4 ** (n + 1) * (n + 1))


def splitmix64(seed: int, index: int) -> int:
    """Word `index` of the splitmix64 stream started at `seed`."""
    x = (seed + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def recount(m: int, seed: int, samples: int) -> list[int]:
    """Histogram of positive-step counts of walks 0..samples-1, one step at a time."""
    words = (m + 63) // 64
    hist = [0] * (m + 1)
    for walk in range(samples):
        s = count = word = 0
        for k in range(m):
            if k % 64 == 0:
                word = splitmix64(seed & _MASK64, walk * words + k // 64)
            prev, s = s, s + (1 if (word >> (k % 64)) & 1 else -1)
            if s > 0 or (s == 0 and prev > 0):
                count += 1
        hist[count] += 1
    return hist


def arcsine_sup(hist: list[int]) -> float:
    """Sup distance between the CDF of count/m and (2/pi) arcsin(sqrt(u))."""
    m, samples = len(hist) - 1, sum(hist)
    worst = before = 0.0
    acc = 0
    for j, h in enumerate(hist):
        acc += h
        limit = 2 / math.pi * math.asin(math.sqrt(j / m))
        worst = max(worst, abs(acc / samples - limit), abs(before - limit))
        before = acc / samples
    return worst


#: walks re-counted in plain Python per simulate call
PREFIX_SAMPLES = 64


def argv_prefix(argv: list[str]) -> list[str]:
    """The same simulate call cut down to its first PREFIX_SAMPLES walks."""
    out = list(argv)
    out[out.index("--samples") + 1] = str(PREFIX_SAMPLES)
    return out


def check_verify(argv: list[str], code: int, out: str, extra_out: None = None) -> dict:
    """Exit 0, no gating mismatch, every row ok at the defining commit still ok,
    and every ok law row carries the exact law."""
    _require(code == 0, f"verify exited {code}")
    rows = json.loads(out)
    for row in rows:
        _require(not row["status"].startswith("mismatch") or row["route"] in QUARANTINED,
                 f"gating mismatch {row}")
    ok = {(row["route"], row["n"]) for row in rows if row["status"] == "ok"}
    lost = VERIFY_OK[" ".join(argv)] - ok
    _require(not lost, f"{len(lost)} rows no longer ok, e.g. {sorted(lost)[:3]}")
    values = []
    for row in rows:
        payload = [Fraction(v) for v in row["payload"].split(",")] if row["payload"] else []
        values += payload
        if row["status"] != "ok":
            continue
        n, route = row["n"], row["route"]
        if route in LAW_ROUTES:
            want = [law_mass(n, j) for j in range(n + 1)]
        elif route == "legendre-two-route":
            want = [law_mass(2 * n, j) for j in range(2 * n + 1)]
        elif route == "cond":
            want = [Fraction(r, n) for r in range(n + 1)]
        else:
            continue
        _require(payload == want, f"{route} n={n}: payload is not the exact law")
    return {
        "verify.rows_ok": len(ok),
        "verify.rows_skipped": sum(row["status"].startswith("skipped") for row in rows),
        "qpoly.max_coeff_bits": _bits(values),
    }


def check_simulate(argv: list[str], code: int, out: str, prefix_out: str, *,
                   sup_bound: float | None = None, tv_bound: float | None = None) -> dict:
    """Histogram sums to the sample count, the prefix run equals a plain recount,
    and the acceptance bounds hold (arcsine sup distance, TV to the exact law)."""
    _require(code == 0, f"simulate exited {code}")
    m, samples, seed = (int(_flag(argv, f)) for f in ("--m", "--samples", "--seed"))
    hist = [int(row["count"]) for row in _csv(out)]
    _require(len(hist) == m + 1, f"histogram has {len(hist)} slots, want {m + 1}")
    _require(sum(hist) == samples, f"histogram sums to {sum(hist)}, want {samples}")
    prefix = [int(row["count"]) for row in _csv(prefix_out)]
    _require(prefix == recount(m, seed, PREFIX_SAMPLES),
             f"first {PREFIX_SAMPLES} walks disagree with a plain recount")
    if sup_bound is not None:
        sup = arcsine_sup(hist)
        _require(sup < sup_bound, f"arcsine sup distance {sup} >= {sup_bound}")
    if tv_bound is not None:
        tv = 0.5 * sum(abs(h / samples - float(law_mass(m, j))) for j, h in enumerate(hist))
        _require(tv < tv_bound, f"tv distance {tv} >= {tv_bound}")
    return {"qpoly.max_coeff_bits": _bits(Fraction(h) for h in hist)}


def check_dist(argv: list[str], code: int, out: str, extra_out: None = None) -> dict:
    """Exact column parses; the law sums to exactly 1 (or the CDF ends at exactly
    1 and never falls); masses at spot indices equal the math.comb values."""
    _require(code == 0, f"dist exited {code}")
    m = int(_flag(argv, "--n"))
    rows = _csv(out)
    _require([(int(r["n"]), int(r["index"])) for r in rows] == [(m, j) for j in range(m + 1)],
             "rows are not n, index = 0..n")
    values = [Fraction(r["exact"]) for r in rows]
    if "--cumulative" in argv:
        _require(values[-1] == 1, f"cdf ends at {values[-1]}, not 1")
        mass = [values[0]] + [b - a for a, b in zip(values, values[1:])]
    else:
        _require(sum(values) == 1, "masses do not sum to 1")
        mass = values
    _require(min(mass) >= 0, "negative mass")
    for j in sorted({0, 1, 2, m // 2 - 1, m // 2, m // 2 + 1, m - 1, m} & set(range(m + 1))):
        _require(mass[j] == law_mass(m, j), f"mass at {j} differs from the exact law")
    return {"qpoly.max_coeff_bits": _bits(values)}
