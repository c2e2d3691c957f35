import ast
from pathlib import Path

import pytest

import coinwalk
from coinwalk.errors import DomainError
from coinwalk.legendre import lagrange_series, legendre, legendre_pgf_table
from coinwalk.montecarlo import SimConfig
from coinwalk.oracle import PositivityRule, enumerate_walks, oracle_conditional
from coinwalk.qpoly import QPoly, binomial
from coinwalk.series import BivariateSeries
from coinwalk.verify import run_verify


class TestPublicSurface:
    def test_every_export_resolves(self):
        missing = [name for name in coinwalk.__all__ if not hasattr(coinwalk, name)]
        assert missing == []

    def test_no_duplicate_exports(self):
        assert len(set(coinwalk.__all__)) == len(coinwalk.__all__)

    def test_star_import(self):
        namespace = {}
        exec("from coinwalk import *", namespace)
        assert set(coinwalk.__all__) <= namespace.keys()


@pytest.mark.parametrize("path", sorted(Path(coinwalk.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_parses_at_the_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10.7: no syntax newer than 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_legendre_builds_no_law():
    # the odd identities are handed the even laws; the module imports nothing of distributions
    tree = ast.parse((Path(coinwalk.__file__).parent / "legendre.py").read_text())
    imported = [f"{node.module or ''}.{alias.name}" if isinstance(node, ast.ImportFrom)
                else alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert imported and not any("distributions" in name.split(".") for name in imported)


def test_oracle_imports_no_other_route():
    # enumeration stays an independent route: of the package it imports only errors
    # and distributions.Distribution, no closed law, series, lattice or qpoly
    tree = ast.parse((Path(coinwalk.__file__).parent / "oracle.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "coinwalk"
                                                 or node.module.startswith("coinwalk.")):
            module = (node.module or "").removeprefix("coinwalk").lstrip(".")
            imported += [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name.removeprefix("coinwalk.") for alias in node.names
                         if alias.name.split(".")[0] == "coinwalk"]
    assert imported
    assert all(name.split(".")[0] == "errors" or name == "distributions.Distribution"
               for name in imported), imported


@pytest.mark.parametrize("call", [
    lambda: QPoly.q().shift(-1),  # was q
    lambda: QPoly.one().shift(-2),
    lambda: QPoly.zero().shift(-1),
    lambda: QPoly.monomial(-1),  # was 1
    lambda: QPoly.monomial(-2, 5),  # was 5
    lambda: legendre(-1),
    lambda: lagrange_series(1, 0, -1),
    lambda: legendre_pgf_table(-1),
    lambda: enumerate_walks(-1, PositivityRule.CHUNG_FELLER),
    lambda: oracle_conditional(0),
    lambda: binomial(-1, 0),  # was a plain ValueError, as were the four below
    lambda: SimConfig(m=-1, samples=1, seed=0),
    lambda: SimConfig(m=4, samples=0, seed=0),
    lambda: BivariateSeries(()),
    lambda: run_verify(sections="nope"),
    lambda: SimConfig(m=2**60, samples=1, seed=0),  # its histogram cannot be allocated
    lambda: enumerate_walks(10**12, PositivityRule.CHUNG_FELLER, cap=2 * 10**12),  # nor its tally
], ids=["shift-q", "shift-one", "shift-zero", "monomial", "monomial-coeff",
        "legendre", "lagrange_series", "legendre_pgf_table", "enumerate_walks",
        "oracle_conditional", "binomial", "simconfig-m", "simconfig-samples", "series-order",
        "verify-sections", "simconfig-huge-m", "enumerate-huge-n"])
def test_negative_exponent_or_size_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()
