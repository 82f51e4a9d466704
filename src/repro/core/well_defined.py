"""Well-definedness analysis for ``algebra=`` programs.

Proposition 3.2: whether an ``algebra=`` program has an initial valid
model is *undecidable* in general.  This module provides what an
implementation can honestly offer instead:

* :func:`recursion_polarity` / :func:`is_call_stratified` — a syntactic
  *sufficient* condition: if no recursive name reaches itself through a
  subtracted position (the call-graph analogue of stratification), every
  database instance yields a total valid model — the Theorem 3.1 /
  Theorem 4.3 fragment.
* :func:`check_well_defined` — the semi-decision procedure for a
  *concrete database*: evaluate and report a verdict with a witness.
  The paper's own examples illustrate all three verdicts: monotone TC is
  ``TOTAL_ALWAYS`` territory, WIN is ``TOTAL_HERE`` on acyclic MOVE, and
  ``S = {a} − S`` is ``UNDEFINED_HERE`` with witness ``(S, a)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Optional, Tuple

from ..digraph import DiGraph, has_negative_cycle
from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry, Universe
from ..relations.values import Value
from .expressions import Call, Diff, Expr, Ifp, Map, Product, RelVar, Select, SetConst, Union
from .programs import AlgebraProgram
from .valid_eval import EvalLimits, ValidEvalResult, valid_evaluate

__all__ = [
    "recursion_polarity",
    "is_call_stratified",
    "Verdict",
    "WellDefinednessReport",
    "check_well_defined",
]


def recursion_polarity(program: AlgebraProgram) -> DiGraph:
    """The signed call graph: edge ``f → g`` with attribute ``negative``
    true when some call of ``g`` in the body of ``f`` sits inside a
    subtracted sub-expression."""
    graph = DiGraph()
    for definition in program.definitions:
        graph.add_node(definition.name)
        for callee, negative in _signed_calls(definition.body, False):
            graph.add_edge(definition.name, callee, negative)
    return graph


def _signed_calls(expr: Expr, under_subtraction: bool) -> List[Tuple[str, bool]]:
    if isinstance(expr, (RelVar, SetConst)):
        return []
    if isinstance(expr, (Union, Product)):
        return _signed_calls(expr.left, under_subtraction) + _signed_calls(
            expr.right, under_subtraction
        )
    if isinstance(expr, Diff):
        return _signed_calls(expr.left, under_subtraction) + _signed_calls(
            expr.right, True
        )
    if isinstance(expr, (Select, Map)):
        return _signed_calls(expr.child, under_subtraction)
    if isinstance(expr, Ifp):
        return _signed_calls(expr.body, under_subtraction)
    if isinstance(expr, Call):
        found = [(expr.name, under_subtraction)]
        for arg in expr.args:
            # Arguments of a parameterised call: conservatively negative
            # (the callee may subtract its parameter).
            found.extend(
                (name, True) for name, _sign in _signed_calls(arg, True)
            )
        return found
    raise TypeError(f"not an expression: {expr!r}")


def is_call_stratified(program: AlgebraProgram) -> bool:
    """Sufficient condition for well-definedness on *every* database:
    no call-graph cycle passes through a subtracted position.

    This is the algebra-side mirror of program stratification; together
    with Theorem 3.1's totality for IFP, it places the program in the
    always-total fragment.
    """
    return not has_negative_cycle(recursion_polarity(program))


class Verdict(enum.Enum):
    """Outcome of well-definedness analysis."""

    TOTAL_ALWAYS = "total on every database (call-stratified)"
    TOTAL_HERE = "total on this database"
    UNDEFINED_HERE = "undefined memberships on this database"


@dataclass
class WellDefinednessReport:
    """Verdict plus evidence."""

    verdict: Verdict
    call_stratified: bool
    result: Optional[ValidEvalResult]
    witnesses: Tuple[Tuple[str, Value], ...] = ()

    def is_well_defined(self) -> bool:
        """True unless the verdict is UNDEFINED_HERE."""
        return self.verdict is not Verdict.UNDEFINED_HERE

    def __repr__(self) -> str:
        extra = ""
        if self.witnesses:
            name, value = self.witnesses[0]
            extra = f" (e.g. MEM({value}, {name}) undefined)"
        return f"<WellDefinednessReport {self.verdict.value}{extra}>"


def check_well_defined(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    universe: Optional[Universe] = None,
    limits: EvalLimits = EvalLimits(),
) -> WellDefinednessReport:
    """Analyse well-definedness of ``program`` on ``environment``.

    Cheap syntactic test first; then the semi-decision by evaluation
    (exact for the bounded window).  ``UNDEFINED_HERE`` reports up to
    five witnessing memberships.
    """
    stratified = is_call_stratified(program)
    result = valid_evaluate(
        program, environment, registry=registry, universe=universe, limits=limits
    )
    if result.is_well_defined():
        verdict = Verdict.TOTAL_ALWAYS if stratified else Verdict.TOTAL_HERE
        return WellDefinednessReport(verdict, stratified, result)
    witnesses = [
        (name, value)
        for name in sorted(result.undefined)
        for value in list(result.undefined[name])[:5]
    ]
    return WellDefinednessReport(
        Verdict.UNDEFINED_HERE, stratified, result, tuple(witnesses[:5])
    )
