"""One benchmark op in a fresh interpreter.

    python3 child.py SRC_DIR REPORT_PATH SPEC_JSON

Imports ``coinwalk.cli`` from SRC_DIR and notes the monotonic time at which
the import returned, so the parent can time set-up from the moment it
started this process.  Then it runs the spec's CLI calls through
``coinwalk.cli.main`` with stdout going to the file the parent opened, times them
(wall and CPU), takes the peak RSS of this process (``VmHWM``; Linux's
``ru_maxrss`` would also count the parent's RSS, which it keeps across
exec) and, when the spec asks for tracing,
installs the wrappers of `tracer` first.  The spec's ``extra`` calls run
afterwards, outside the timing, with stdout captured to a string; their
output feeds the parent's correctness checks.  Everything measured is
written as JSON to REPORT_PATH.  SPEC_JSON keys: ``op`` (id), ``calls`` and
``extra`` (lists of argv lists), ``trace`` (bool).
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import coinwalk.cli  # noqa: E402

IMPORTED_AT = time.monotonic()


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    # imported here, after IMPORTED_AT, so that they do not count as set-up
    import contextlib
    import io
    import json

    import coinwalk

    spec = json.loads(sys.argv[3])
    report = {"imported_at": IMPORTED_AT, "coinwalk": coinwalk.__file__}
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["op"])
        tracer.install()
    if spec["calls"]:
        codes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in spec["calls"]:
            codes.append(coinwalk.cli.main(argv))
        sys.stdout.flush()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        report.update(
            codes=codes,
            op_s=wall1 - wall0,
            cpu_s=cpu1 - cpu0,
            rss_mb=peak_rss_mb(),
        )
        if tracer is not None:
            report["layers"] = tracer.metrics(wall1 - wall0)
            report["module_self_s"] = tracer.module_self()
            report["stats"] = tracer.stats
            report["spans"] = tracer.spans
    report["extra"] = []
    for argv in spec["extra"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            coinwalk.cli.main(argv)
        report["extra"].append(buf.getvalue())
    with open(sys.argv[2], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
