"""Direct semi-naive evaluation of stratified programs.

A program without a cycle through negation needs no ground program:
"the answer can be obtained by successively computing the minimal model
of each stratum" (Section 4), rules evaluated directly over the
database with delta iteration — here on the join kernel
(:mod:`repro.datalog.kernel`: each literal over a changed predicate
leads one firing with last round's rows, the rest of the body is index
probes).  This is the production path for every closed component:
:func:`~repro.datalog.engine.run` sends the rules outside a program's
open cone here and grounds only the rest, over this module's result
(benchmark P05 pits the two routes against each other).

Negation is handled stratum by stratum: by the time a negative literal
is consulted, its predicate is fully evaluated, so ``not q(ā)`` is a
simple lookup.

This module is only that stratum loop; the fact store and the rule
firing walk are :class:`~repro.datalog.kernel.JoinKernel`, which the
service layer's maintenance engines share.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..robustness import EvaluationBudget, fault_point
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from .ast import Literal, Program
from .database import Database
from .grounding import GroundingBudgetExceeded
from .kernel import JoinKernel
from .stratification import stratify

__all__ = ["seminaive_stratified"]


def seminaive_stratified(
    program: Program,
    database: Database,
    registry: Optional[FunctionRegistry] = None,
    max_rounds: int = 100_000,
    strata: Optional[Mapping[str, int]] = None,
    budget: Optional[EvaluationBudget] = None,
    semiring=None,
    max_atoms: Optional[int] = None,
) -> Dict[str, FrozenSet[Tuple[Value, ...]]]:
    """Evaluate a stratified program directly (no grounding).

    Returns predicate → derived rows (IDB and EDB alike).  Raises
    :class:`~repro.datalog.stratification.NotStratifiedError` on
    non-stratified input and, like the grounder for the same two bounds,
    :class:`~repro.datalog.grounding.GroundingBudgetExceeded` (a
    ``BudgetExceeded``) if a stratum exceeds ``max_rounds`` or the
    model, database included, ``max_atoms`` rows (function symbols
    without guards).  ``budget`` adds deadline/step/fact governance.

    ``strata`` lets a caller that has already stratified the program
    (a registered prepared plan) skip re-deriving the schedule.

    ``semiring`` (a non-boolean :class:`~repro.semiring.Semiring`)
    delegates to the annotated fixpoint and returns its *support* —
    identical to the boolean model for the shipped semirings, but
    subject to their convergence conditions.  Callers that need the
    annotations themselves use
    :func:`~repro.datalog.annotated.annotated_model` directly.
    """
    if semiring is not None and semiring.name != "bool":
        from .annotated import annotated_model

        maps = annotated_model(
            program,
            database,
            semiring,
            registry=registry,
            strata=strata,
            max_rounds=min(max_rounds, 10_000),
            budget=budget,
        )
        return {
            predicate: frozenset(rows) for predicate, rows in maps.items()
        }
    if strata is None:
        strata = stratify(program)
    height = max(strata.values(), default=0)

    state = JoinKernel(registry)
    levels = []
    for level in range(height + 1):
        rules = [
            rule for rule in program.rules if strata[rule.head.predicate] == level
        ]
        heads = {rule.head.predicate for rule in rules}
        # Only a literal over this level's own heads ever sees a delta.
        levels.append(
            (
                [state.plan(rule) for rule in rules],
                [
                    (item.atom.predicate, state.plan(rule, index))
                    for rule in rules
                    for index, item in enumerate(rule.body)
                    if isinstance(item, Literal)
                    and item.positive
                    and item.atom.predicate in heads
                ],
            )
        )
    for predicate in database.predicates():
        for row in database.rows(predicate):
            state.add(predicate, row)

    def absorb(plan, lead, sink) -> None:
        if budget is not None:
            budget.tick(phase="seminaive")
        for row, _weight in state.fire(plan, lead, budget=budget):
            if state.add(plan.head, row):
                if budget is not None:
                    budget.charge_facts()
                sink.setdefault(plan.head, set()).add(row)

    def exhausted(level: int) -> GroundingBudgetExceeded:
        return GroundingBudgetExceeded(
            f"stratum {level} did not converge within max_rounds={max_rounds}, "
            f"max_atoms={max_atoms}",
            progress=budget.progress if budget is not None else None,
        )

    for level, (naive, variants) in enumerate(levels):
        # Naive first round.
        delta: Dict[str, Set[Tuple[Value, ...]]] = {}
        for plan in naive:
            absorb(plan, None, delta)
        # Semi-naive rounds: each literal over a predicate that changed
        # last round leads one firing with exactly those rows.
        for _round in range(max_rounds):
            fault_point("seminaive.round")
            if budget is not None:
                budget.note_iteration(stratum=level, phase="seminaive")
            if max_atoms is not None and max_atoms < sum(
                map(len, state.facts.values())
            ):
                raise exhausted(level)
            if not delta:
                break
            next_delta: Dict[str, Set[Tuple[Value, ...]]] = {}
            for predicate, plan in variants:
                rows = delta.get(predicate)
                if rows:
                    absorb(plan, rows, next_delta)
            delta = next_delta
        else:
            raise exhausted(level)

    return {
        predicate: frozenset(rows) for predicate, rows in state.facts.items()
    }
