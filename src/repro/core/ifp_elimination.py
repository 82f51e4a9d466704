"""Corollary 3.6, constructively: eliminating IFP from queries.

Theorem 3.5 / Corollary 3.6: ``IFP-algebra ⊂ algebra= = IFP-algebra=`` —
"when the ability to use recursion is added, a specific fixed point
operator like IFP becomes redundant".  The proof is a composition, and
this module implements it as a program transformation:

    IFP-algebra query
      → deductive program          (Proposition 5.1, inflationary-correct)
      → stage-indexed program      (Proposition 5.2, valid-correct)
      → ``algebra=`` program       (Proposition 6.1, IFP-free)

The stage bound is the one executable commitment: the paper's
construction indexes stages by the naturals, and a finite evaluation
needs a cap.  :func:`eliminate_ifp` takes it explicitly;
:func:`eliminate_ifp_auto` finds a sufficient bound by doubling against
the query's own inflationary evaluation on a given database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry
from .algebra_to_datalog import translate_expression, translation_registry
from .datalog_to_algebra import datalog_to_algebra
from .expressions import Expr, Ifp, walk
from .programs import AlgebraProgram
from .staging import stage_program
from .valid_eval import evaluate, valid_evaluate

__all__ = ["IfpFreeQuery", "eliminate_ifp", "eliminate_ifp_auto"]


@dataclass
class IfpFreeQuery:
    """An ``algebra=`` program equivalent to an IFP-algebra query."""

    program: AlgebraProgram
    result: str
    stage_bound: int

    def evaluate(
        self,
        environment: Mapping[str, Relation],
        registry: Optional[FunctionRegistry] = None,
    ) -> Relation:
        """The query's value on a database (always total: the program is
        in the image of the Theorem 3.5 construction)."""
        registry = registry or translation_registry()
        outcome = valid_evaluate(self.program, environment, registry=registry)
        return outcome.relation(self.result)


def eliminate_ifp(
    query: Expr,
    database_relations: FrozenSet[str] = frozenset(),
    stage_bound: int = 16,
) -> IfpFreeQuery:
    """Express an IFP-algebra query in ``algebra=`` (no IFP operator).

    ``stage_bound`` must dominate the query's inflationary round count on
    the databases of interest (use :func:`eliminate_ifp_auto` to discover
    one).  The result's defined sets include auxiliary stage relations;
    ``result`` names the query's answer set.
    """
    translation = translate_expression(query)
    staged = stage_program(translation.program, stage_bound)
    to_algebra = datalog_to_algebra(staged)
    program = AlgebraProgram(
        to_algebra.program.definitions,
        frozenset(database_relations)
        | (to_algebra.program.database_relations - {d.name for d in to_algebra.program.definitions}),
        to_algebra.program.dialect,
        name="ifp-free",
    )
    assert not program.uses_ifp()
    return IfpFreeQuery(program, translation.result_predicate, stage_bound)


def eliminate_ifp_auto(
    query: Expr,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    initial_bound: int = 4,
    max_bound: int = 1_024,
) -> IfpFreeQuery:
    """Eliminate IFP with a stage bound certified against ``environment``:
    double until the IFP-free program reproduces the query's direct value.
    """
    registry = registry or translation_registry()
    expected = evaluate(query, environment, registry=registry)
    bound = initial_bound
    while True:
        candidate = eliminate_ifp(
            query, frozenset(environment), stage_bound=bound
        )
        if candidate.evaluate(environment, registry=registry).items == expected.items:
            return candidate
        if bound >= max_bound:
            raise RuntimeError(
                f"no sufficient stage bound up to {max_bound} — the query may "
                f"diverge on this database"
            )
        bound *= 2
