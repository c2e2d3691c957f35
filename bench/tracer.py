"""Timing wrappers put around the coinwalk package from outside it.

`Tracer.install` wraps, after `coinwalk.cli` is imported:

* every public function defined in a ``coinwalk.*`` module.  Each wrapper is
  bound under every name that refers to the function in any coinwalk module,
  so both calls inside the defining module and calls through an importing
  module's name (``coinwalk.verify.dp_pgf_table``) pass through it.  Each
  call records a span: name, start, end, parent span and op id.
* the arithmetic methods of ``QPoly`` and ``BivariateSeries`` listed in
  `METHODS`.  These run hundreds of thousands of times per op, so they only
  add to per-name aggregates (count, total time, self time) and record no
  span.

Self time is a call's duration minus the time of the wrapped calls made from
inside it.  Private helpers are not wrapped, so their time counts as self
time of the wrapped function that called them (``oracle._enumerate`` inside
``oracle.enumerate_walks``, for instance).  Functions held only in a dict
(``cli._SERIES_BUILDERS``) are not re-bound; no workload reaches them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
import types

#: the package modules that are layers of the benchmark
LAYERS = ("cli", "verify", "series", "qpoly", "lattice", "legendre",
          "distributions", "oracle", "montecarlo")

#: class -> {metric group: method names}; every listed method is wrapped
METHODS = {
    ("qpoly", "QPoly"): {
        "mul": ("__mul__", "__rmul__"),
        "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
        "scale": ("scale",),
        "divmod": ("divmod", "divide_exact"),
        "other": ("shift", "derivative", "even_part", "odd_part", "__call__"),
    },
    ("series", "BivariateSeries"): {
        "mul": ("__mul__",),
        "div": ("__truediv__", "reciprocal"),
        "sqrt": ("sqrt",),
        "other": ("__add__", "__sub__", "__neg__", "scale", "shift_up", "shift_down",
                  "truncate"),
    },
}

#: functions whose arguments are kept, by parameter name, for ratio metrics
RECORDED = {
    "series.pgf_series": ("order",),
    "series.pgf_series_even": ("order",),
    "series.pgf_series_odd": ("order",),
    "series.pgf_series_odd_ratio": ("order",),
    "series.pgf_series_ratio": ("order",),
    "series.nonneg_series": ("order",),
    "oracle.enumerate_walks": ("n", "rule"),
    "montecarlo.simulate": ("cfg",),
}

LEGENDRE_IDENTITIES = ("even_pgf", "even_pgf_via_legendre", "odd_pgf_via_ratio",
                       "odd_pgf_via_derivative", "odd_pgf_via_three_term",
                       "odd_pgf_via_parity_split", "odd_masses_via_partial_sums")


class Tracer:
    """Spans and per-name aggregates of one op, kept in memory."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.stack: list[list] = []  # frames: [start, time in wrapped children, span id]
        self.spans: list[tuple] = []  # (span id, name, start, end, parent span id, op id)
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.args: dict[str, list[tuple]] = {name: [] for name in RECORDED}
        self._next_span_id = itertools.count(1).__next__

    def install(self) -> None:
        modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("coinwalk.") and mod is not None}
        wrappers = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value, True))
        for mod in (sys.modules["coinwalk"], *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for (short, cls_name), groups in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for names in groups.values():
                for name in names:
                    if name in cls.__dict__:
                        wrapper = self._wrap(f"{short}.{cls_name}.{name}", cls.__dict__[name], False)
                        setattr(cls, name, wrapper)

    def _wrap(self, name: str, fn, record_span: bool):
        stack, spans, op_id = self.stack, self.spans, self.op_id
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        recorded = self.args.get(name)
        if recorded is not None:
            signature, params = inspect.signature(fn), RECORDED[name]
        next_id = self._next_span_id

        def wrapper(*args, **kwargs):
            if recorded is not None:
                bound = signature.bind(*args, **kwargs).arguments
                recorded.append(tuple(bound.get(p) for p in params))
            parent = stack[-1][2] if stack else None
            span_id = next_id() if record_span else parent
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record_span:
                    spans.append((span_id, name, frame[0], end, parent, op_id))

        return functools.update_wrapper(wrapper, fn)

    # -- metrics ---------------------------------------------------------------

    def _sum(self, field: int, names) -> float:
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def _prefixed(self, prefix: str) -> list[str]:
        return [n for n in self.stats if n.startswith(prefix)]

    def _method_names(self, short: str, cls_name: str, group: str) -> list[str]:
        return [f"{short}.{cls_name}.{m}" for m in METHODS[(short, cls_name)][group]]

    def module_self(self) -> dict[str, float]:
        """Self seconds per coinwalk module, summed over its wrapped callables."""
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out

    def inclusive(self, names) -> float:
        """Seconds inside calls to `names` that were not made from inside another."""
        names = set(names)
        parents = {span[0]: (span[1], span[4]) for span in self.spans}
        total = 0.0
        for span_id, name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent is not None and parents[parent][0] not in names:
                parent = parents[parent][1]
            if parent is None:
                total += end - start
        return total

    def metrics(self, op_s: float) -> dict[str, float]:
        """Per-layer metrics of the op, given the op's traced wall time."""
        calls = lambda names: self._sum(0, names)
        self_s = lambda names: self._sum(2, names)
        qpoly = functools.partial(self._method_names, "qpoly", "QPoly")
        series = functools.partial(self._method_names, "series", "BivariateSeries")
        lattice = self._prefixed("lattice.")
        laws = ["distributions.even_distribution", "distributions.odd_distribution"]
        identities = [f"legendre.{f}" for f in LEGENDRE_IDENTITIES]
        builders = [name for name in RECORDED if name.startswith("series.")]
        expansions = [(name, args) for name in builders for args in self.args[name]]
        walks = self.args["oracle.enumerate_walks"]
        distinct_walks = set(walks)
        enumerate_s = self_s(["oracle.enumerate_walks"])
        paths = sum(1 << n for n, _ in distinct_walks)
        steps = sum(cfg.m * cfg.samples for (cfg,) in self.args["montecarlo.simulate"])
        simulate_s = self_s(["montecarlo.simulate"])
        layer_self = self.module_self()

        return {
            "qpoly.mul.calls": calls(qpoly("mul")),
            "qpoly.mul.self_s": self_s(qpoly("mul")),
            "qpoly.add.calls": calls(qpoly("add")),
            "qpoly.add.self_s": self_s(qpoly("add")),
            "qpoly.scale.self_s": self_s(qpoly("scale")),
            "qpoly.divmod.calls": calls(qpoly("divmod")),
            "qpoly.divmod.self_s": self_s(qpoly("divmod")),
            "series.mul.self_s": self_s(series("mul")),
            "series.div.self_s": self_s(series("div")),
            "series.sqrt.self_s": self_s(series("sqrt")),
            "series.expansions.calls": len(expansions),
            "series.expansions.distinct_ratio":
                len(set(expansions)) / len(expansions) if expansions else 0.0,
            "series.expansions.total_s": self.inclusive(builders),
            "lattice.dp_pgf_table.self_s": self_s(lattice),
            "lattice.dp_pgf_table.total_s": self.inclusive(lattice),
            "legendre.identities.self_s": self_s(identities),
            "legendre.identities.total_s": self.inclusive(identities),
            "legendre.legendre.calls": calls(["legendre.legendre"]),
            "distributions.law.self_s": self_s(laws),
            "distributions.law.total_s": self.inclusive(laws),
            "distributions.cdf.self_s": self_s(["distributions.cdf"]),
            "oracle.enumerate.self_s": enumerate_s,
            "oracle.paths": paths,
            "oracle.paths_per_s": paths / enumerate_s if enumerate_s else 0.0,
            "oracle.distinct_ratio": len(distinct_walks) / len(walks) if walks else 0.0,
            "montecarlo.simulate.self_s": simulate_s,
            "montecarlo.steps": steps,
            "montecarlo.steps_per_s": steps / simulate_s if simulate_s else 0.0,
            "montecarlo.report_s": self_s(["montecarlo.arcsine_sup_distance",
                                           "montecarlo.tv_distance",
                                           "montecarlo.arcsine_cdf"]),
            "verify.run_verify.self_s": self_s(self._prefixed("verify.")),
            "cli.main.self_s": self_s(self._prefixed("cli.")),
            "trace.coverage": sum(layer_self.get(layer, 0.0) for layer in LAYERS) / op_s,
        }
