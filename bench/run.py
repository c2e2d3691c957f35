"""Benchmark of the coinwalk command line, one op per fresh process.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

An op is one or two ``coinwalk`` CLI calls made through
``coinwalk.cli.main`` in a new interpreter (`child.py`), so no cache inside
the package carries from one op to the next and every op pays what a real
invocation pays.  This process is the only parent and runs one child at a
time.  After each op it checks the output with `checks`, outside the
timing; an op whose check fails counts as failed.

Each run first starts a few children that only import the package, for
set-up time, then runs ops until ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced ops, prints both tables, reports the
per-layer metrics, and writes the spans of the traced ops to
``bench/out/trace-<workload>-<seed>.json``.  Metric names and units come
from ``BENCHMARK.json``.  The last line of stdout is the JSON result.

The seed only sets the Monte Carlo seeds; the other workloads are fixed.
``--self-check`` runs every workload at tiny sizes, checks that every metric
in ``BENCHMARK.json`` is reported with its unit, and checks that the
correctness checks reject tampered outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: children per run that only import the package, for set-up time
SETUP_PROBES = 5
#: a run ends by this many seconds after it started, whatever --seconds says
RUN_LIMIT_S = 170.0
#: children write bytecode caches and buffer stdout, as a plain `coinwalk` run
#: does, whatever the calling environment asks for
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "", "PYTHONUNBUFFERED": ""}


@dataclass(frozen=True)
class Call:
    """One CLI call of an op, with the check of its output."""

    argv: list[str]
    check: Callable[..., dict]
    extra: list[str] | None = None  # untimed call whose stdout the check also reads


def verify(max_n: int, order: int, cap: int) -> Call:
    argv = ["verify", "--max-n", str(max_n), "--order", str(order), "--cap", str(cap),
            "--format", "json"]
    return Call(argv, checks.check_verify)


def simulate(m: int, samples: int, seed: int, **bounds) -> Call:
    argv = ["simulate", "--m", str(m), "--samples", str(samples), "--seed", str(seed)]
    return Call(argv, functools.partial(checks.check_simulate, **bounds),
                checks.argv_prefix(argv))


def dist(n: int, cumulative: bool = False) -> Call:
    return Call(["dist", "--n", str(n)] + (["--cumulative"] if cumulative else []),
                checks.check_dist)


#: name -> (ops at full size, ops at self-check size), each a function of the seed.
#: Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS: dict[str, tuple[Callable[[int], list[Call]], Callable[[int], list[Call]]]] = {
    "verify-exact": (lambda seed: [verify(64, 65, 16)],
                     lambda seed: [verify(8, 9, 4)]),
    "verify-oracle": (lambda seed: [verify(22, 23, 22)],
                      lambda seed: [verify(8, 9, 8)]),
    "simulate": (lambda seed: [simulate(1000, 200000, seed, sup_bound=0.05),
                               simulate(24, 100000, seed, tv_bound=0.01)],
                 lambda seed: [simulate(24, 100000, seed, tv_bound=0.01)]),
    "law-large-m": (lambda seed: [dist(4000), dist(4001, cumulative=True)],
                    lambda seed: [dist(40), dist(41, cumulative=True)]),
}


# -- one op --------------------------------------------------------------------


def spawn(calls: list[Call], trace: bool, op_id: int, deadline: float):
    """Run one op in a child; return (report, stdout) or raise RuntimeError.

    The child's stdout goes to a file, as in ``coinwalk dist --n 4000 > law.csv``,
    so that its time does not include waiting for this process to drain a pipe."""
    timeout = max(5.0, deadline - time.monotonic())
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"op-{os.getpid()}-{op_id}.json"
    stdout_path = report_path.with_suffix(".out")
    spec = {"op": op_id, "trace": trace, "calls": [c.argv for c in calls],
            "extra": [c.extra for c in calls if c.extra]}
    try:
        with open(stdout_path, "w+") as stdout:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(SRC), str(report_path),
                 json.dumps(spec)],
                cwd=ROOT, env=CHILD_ENV, stdout=stdout, stderr=subprocess.PIPE, text=True,
                timeout=timeout)
            if proc.returncode != 0 or not report_path.exists():
                raise RuntimeError(
                    f"op {op_id}: child exited {proc.returncode}\n{proc.stderr[-4000:]}")
            stdout.seek(0)
            output = stdout.read()
        report = json.loads(report_path.read_text())
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"op {op_id} timed out after {timeout:.0f} s") from None
    finally:
        report_path.unlink(missing_ok=True)
        stdout_path.unlink(missing_ok=True)
    if not Path(report["coinwalk"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"coinwalk was imported from {report['coinwalk']}, not {SRC}")
    report["setup_s"] = report["imported_at"] - started
    return report, output


def split_outputs(stdout: str, count: int) -> list[str]:
    """Cut the op's stdout into one piece per call; each piece starts with the
    same first line (the CSV header), and a single call keeps everything."""
    if count == 1:
        return [stdout]
    lines = stdout.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line == lines[0]] + [len(lines)]
    if len(starts) != count + 1:
        raise checks.CheckFailed(f"expected {count} outputs, found {len(starts) - 1}")
    return ["".join(lines[a:b]) for a, b in zip(starts, starts[1:])]


def check_op(calls: list[Call], codes: list[int], stdout: str, extra: list[str]) -> dict:
    """Run every call's check; return the merged measurements or raise CheckFailed."""
    extra_out = iter(extra)
    info = {"verify.rows_ok": 0, "verify.rows_skipped": 0, "qpoly.max_coeff_bits": 0}
    for call, code, out in zip(calls, codes, split_outputs(stdout, len(calls)), strict=True):
        found = call.check(call.argv, code, out, next(extra_out) if call.extra else None)
        for key, value in found.items():
            info[key] = max(info[key], value) if key.endswith("max_coeff_bits") else info[key] + value
    info["cli.out_mb"] = len(stdout.encode()) / 1e6
    return info


def run_op(calls: list[Call], trace: bool, op_id: int, deadline: float) -> dict:
    """Spawn and check one op; the record says whether it failed."""
    record = {"op": op_id, "traced": trace, "ok": False}
    try:
        report, stdout = spawn(calls, trace, op_id, deadline)
        record.update(report)
        record.update(check_op(calls, report["codes"], stdout, report["extra"]))
        record["ok"] = True
    except Exception:  # any error in running or checking the op fails only that op
        print(f"op {op_id} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return record


# -- one run ---------------------------------------------------------------------


def measure(calls: list[Call], seconds: float, trace: bool) -> tuple[list[float], list[dict]]:
    """Set-up probes, then ops until `seconds` pass (alternating traced ones in)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn([], False, 0, deadline)  # untimed: writes bytecode caches, warms the file cache
    setups = [spawn([], False, i, deadline)[0]["setup_s"] for i in range(1, SETUP_PROBES + 1)]
    kinds = (False, True) if trace else (False,)
    ops: list[dict] = []
    while len(ops) < len(kinds) or (time.monotonic() - start < seconds
                                    and time.monotonic() < deadline):
        ops.append(run_op(calls, kinds[len(ops) % len(kinds)], len(ops) + 1, deadline))
    return setups, ops


def summarize(setups: list[float], ops: list[dict]) -> tuple[dict, dict, list[str]]:
    """End-to-end and per-layer metrics of one run, plus the lines of its tables."""
    plain = [op for op in ops if not op["traced"] and "op_s" in op]
    traced = [op for op in ops if op["traced"] and "layers" in op]
    failed = sum(not op["ok"] for op in ops)
    if not plain:
        raise RuntimeError("no untraced op produced a timing")
    op_s = [op["op_s"] for op in plain]
    setup_s = setups + [op["setup_s"] for op in ops if "setup_s" in op]
    end_to_end = {
        "op_s.p50": statistics.median(op_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in plain),
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    q1, _, q3 = statistics.quantiles(op_s, n=4, method="inclusive") if len(op_s) > 1 else op_s * 3
    lines = [f"{len(ops)} ops, {failed} failed, fail_ratio {failed / len(ops):.4g}",
             "end-to-end (tracing off)"]
    lines += [f"  {name:36} {value:14.6g} {UNITS[name]}" for name, value in end_to_end.items()]
    lines.append(f"  op_s over {len(op_s)} ops: p25 {q1:.6g}  p50 {end_to_end['op_s.p50']:.6g}"
                 f"  p75 {q3:.6g}; setup_s over {len(setup_s)} starts")
    if not traced:
        return end_to_end, {}, lines

    per_layer = {name: statistics.median(op["layers"][name] for op in traced)
                 for name in traced[0]["layers"]}
    for key in ("verify.rows_ok", "verify.rows_skipped", "qpoly.max_coeff_bits", "cli.out_mb"):
        per_layer[key] = statistics.median(op[key] for op in ops if key in op)
    per_layer["cpu_s"] = statistics.median(op["cpu_s"] for op in plain)
    per_layer["trace.overhead"] = (statistics.median(op["op_s"] for op in traced)
                                   / end_to_end["op_s.p50"] - 1)
    per_layer = {name: per_layer[name] for name in sorted(per_layer)}
    lines.append(f"per-layer (traced, median of {len(traced)} ops)")
    lines += [f"  {name:36} {value:14.6g} {UNITS[name]}" for name, value in per_layer.items()]
    modules = {m for op in traced for m in op["module_self_s"]}
    lines.append("self seconds per module (traced): " + ", ".join(
        f"{m} {statistics.median(op['module_self_s'].get(m, 0.0) for op in traced):.4g}"
        for m in sorted(modules)))
    return end_to_end, per_layer, lines


def run_workload(name: str, calls: list[Call], seed: int, seconds: float, trace: bool) -> dict:
    setups, ops = measure(calls, seconds, trace)
    end_to_end, per_layer, lines = summarize(setups, ops)
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("\n".join(lines))
    if trace:
        traced = [op for op in ops if "spans" in op]
        (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed,
            "span_fields": ["span", "name", "start", "end", "parent", "op"],
            "spans": [span for op in traced for span in op["spans"]],
            "stat_fields": ["calls", "total_s", "self_s"],
            "stats": {op["op"]: op["stats"] for op in traced}}))
    metrics = per_layer if trace else end_to_end
    failed = sum(not op["ok"] for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


# -- self-check --------------------------------------------------------------------


def _tampered(name: str, stdout: str) -> list[tuple[str, str]]:
    """Outputs of a tiny op that the checks must reject, with what was changed."""
    if name.startswith("verify"):
        rows = json.loads(stdout)
        law_row = next(r for r in rows if r["route"] == "dp" and r["n"] == 4)
        payload = law_row["payload"].split(",")
        law_row["payload"] = ",".join(["1/3"] + payload[1:])
        changed_payload = json.dumps(rows)
        law_row["payload"] = ",".join(payload)
        law_row["status"] = "skipped:cap"
        return [("verify row payload", changed_payload), ("verify row status", json.dumps(rows))]
    lines = stdout.splitlines(keepends=True)
    fields = lines[1].split(",")
    if name == "simulate":
        fields[1] = str(int(fields[1]) + 1)
        what = "histogram count"
    else:
        fields[2] = "1/2"
        what = "law mass"
    return [(what, "".join(lines[:1] + [",".join(fields)] + lines[2:]))]


def self_check() -> int:
    problems = []
    if checks.splitmix64(0, 0) != 0xE220A8397B1DCDAF:
        problems.append("splitmix64 test vector")
    for name, (_, tiny) in WORKLOADS.items():
        calls = tiny(1)
        for trace in (False, True):
            result = run_workload(name, calls, 1, 0, trace)
            print(json.dumps(result))
            wanted = SPEC["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: metric {metric['name']} missing or without unit")
            if not result["correct"]:
                problems.append(f"{name}: untampered op failed its check")
        report, stdout = spawn(calls, False, 1, time.monotonic() + RUN_LIMIT_S)
        for what, bad in _tampered(name, stdout):
            try:
                check_op(calls, report["codes"], bad, report["extra"])
                problems.append(f"{name}: tampered {what} passed the check")
            except checks.CheckFailed:
                print(f"{name}: tampered {what} rejected")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print(f"self-check: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


# -- command line ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "coinwalk" / "cli.py").is_file():
        print(f"error: no coinwalk sources at {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, WORKLOADS[name][0](args.seed), args.seed,
                                  args.seconds, bool(args.trace))
        except RuntimeError:
            traceback.print_exc()
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
