"""Exact distributions of the time a fair coin-tossing walk spends positive.

Four independent computation routes (closed formulas, a lattice recursion,
formal power-series expansion, exhaustive enumeration) plus a seeded Monte
Carlo check, all over exact rationals, with a harness that cross-verifies
them coefficient by coefficient.

The names of the numpy-backed modules (`montecarlo`, `oracle`, and
`verify`, which imports `oracle`) resolve on first access, so importing the
package does not import numpy.
"""

import importlib

from .distributions import (
    Distribution,
    cdf,
    conditional_positive,
    law,
    pgf,
)
from .errors import (
    CapExceeded,
    CoinwalkError,
    DomainError,
    InexactDivision,
    SqrtDomainError,
    ValuationError,
)
from .lattice import dp_pgf, dp_pgf_table
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
from .qpoly import QPoly, binomial, format_poly
from .series import (
    BivariateSeries,
    nonneg_series,
    pgf_series,
    pgf_series_even,
    pgf_series_odd,
    pgf_series_odd_ratio,
    pgf_series_ratio,
)

# name -> the module that defines it, imported when the name is first read
_LAZY = {
    **dict.fromkeys(("SimConfig", "arcsine_cdf", "arcsine_sup_distance", "simulate",
                     "splitmix64", "tv_distance", "walk_steps"), "montecarlo"),
    **dict.fromkeys(("DEFAULT_CAP", "PositivityRule", "WalkStats", "count_positive",
                     "enumerate_walks", "oracle_conditional", "oracle_distribution"), "oracle"),
    **dict.fromkeys(("ReportRow", "VerifyReport", "run_verify"), "verify"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _LAZY.values():  # the module itself, bound here once it is imported
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _LAZY.keys() | set(_LAZY.values()))


__version__ = "0.1.0"

__all__ = [
    "BivariateSeries",
    "CapExceeded",
    "CoinwalkError",
    "DEFAULT_CAP",
    "Distribution",
    "DomainError",
    "InexactDivision",
    "PositivityRule",
    "QPoly",
    "ReportRow",
    "SimConfig",
    "SqrtDomainError",
    "ValuationError",
    "VerifyReport",
    "WalkStats",
    "arcsine_cdf",
    "arcsine_sup_distance",
    "binomial",
    "cdf",
    "conditional_positive",
    "count_positive",
    "dp_pgf",
    "dp_pgf_table",
    "enumerate_walks",
    "format_poly",
    "lagrange_series",
    "law",
    "legendre",
    "legendre_pgf_table",
    "nonneg_series",
    "odd_pgf_via_derivative",
    "odd_pgf_via_parity_split",
    "odd_pgf_via_partial_sums",
    "odd_pgf_via_ratio",
    "odd_pgf_via_three_term",
    "oracle_conditional",
    "oracle_distribution",
    "pgf",
    "pgf_series",
    "pgf_series_even",
    "pgf_series_odd",
    "pgf_series_odd_ratio",
    "pgf_series_ratio",
    "run_verify",
    "simulate",
    "splitmix64",
    "tv_distance",
    "walk_steps",
]
