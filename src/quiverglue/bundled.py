"""Loader for the bundled worked-example data.

The package ships the three algebras of the running example (the A2
a-side, the bound A3 c-side, the triangular total algebra) together
with complete universes of indecomposables for each, as plain text
files.  ``load_workspace`` reads them back through the public parsers,
so the bundled data exercises the same code paths as user files, and an
alternate data directory can be substituted wholesale.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import UnknownName
from .modcat import QModule, Universe, direct_sum
from .recollement import Recollement, build_recollement
from .textio import parse_algebra, parse_universe

A_VERTICES = ["1", "2"]

EXPECTED = {
    "5-1": frozenset({"(0|P(5))", "(S(1)|0)", "(P(1)|P(3))", "(P(1)|P(4))", "(P(1)|0)"}),
    "5-2": frozenset({"(S(2)|0)", "(S(2)|P(4))", "(P(1)|0)", "(P(1)|P(3))", "(S(1)|S(3))"}),
}

INPUTS = {
    # (kind, a-side summand names, n1, c-side summand names, n3)
    "5-1": ("cotilting", ("P(1)", "S(1)"), 1, ("P(3)", "P(4)", "P(5)"), 2),
    "5-2": ("tilting", ("P(1)", "S(2)"), 1, ("P(3)", "P(4)", "S(3)"), 2),
}


class Workspace(NamedTuple):
    """Everything the worked examples need, loaded from text files."""

    recollement: Recollement
    universe_a: Universe
    universe_c: Universe
    universe_b: Universe

    def summand_sum(self, universe: Universe, names: tuple[str, ...]) -> QModule:
        return direct_sum(universe.algebra, [universe.module(n) for n in names])

    def example_inputs(self, example_id: str):
        if example_id not in INPUTS:
            raise UnknownName(f"unknown example {example_id!r}; choose one of {sorted(INPUTS)}")
        kind, a_names, n1, c_names, n3 = INPUTS[example_id]
        t1 = self.summand_sum(self.universe_a, a_names)
        t3 = self.summand_sum(self.universe_c, c_names)
        return kind, t1, n1, t3, n3, EXPECTED[example_id]


def data_path() -> Path:
    return Path(str(resources.files("quiverglue").joinpath("data")))


def load_workspace(prime: int | None = None, data_dir: str | Path | None = None) -> Workspace:
    """Load algebras and universes; a prime override rebuilds everything."""
    base = Path(data_dir) if data_dir is not None else data_path()
    total = parse_algebra(
        (base / "lambda.alg").read_text(), name="lambda", prime_override=prime
    )
    rec = build_recollement(total, A_VERTICES, a_name="lambda_prime", c_name="lambda_dprime")
    # outer universes parse against the recollement's own corner objects,
    # never against fresh parses of the corner algebra files
    universe_a = parse_universe(base / "lambda_prime.univ", rec.a_algebra)
    universe_c = parse_universe(base / "lambda_dprime.univ", rec.c_algebra)
    universe_b = parse_universe(base / "lambda.univ", total)
    return Workspace(
        recollement=rec,
        universe_a=universe_a,
        universe_c=universe_c,
        universe_b=universe_b,
    )
