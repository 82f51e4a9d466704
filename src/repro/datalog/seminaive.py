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

This module is only that stratum loop; the fact store, the rule firings
— each plan compiled to one generated Python function — and the rounds
around them (:meth:`~repro.datalog.kernel.JoinKernel.close`) are the
join kernel's, which the grounder, the algebra's candidate universe and
the service layer's maintenance engines share.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Optional, Tuple

from ..robustness import EvaluationBudget, fault_point
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from .ast import Literal, Program
from .database import Database
from .grounding import GroundingBudgetExceeded
from .kernel import JoinKernel, Plan, compile_plan
from .stratification import stratify

__all__ = ["seminaive_stratified"]

Schedule = Tuple[Tuple[Tuple[Plan, ...], Tuple[Tuple[str, Plan], ...]], ...]


@lru_cache(maxsize=1024)
def _schedule(program: Program) -> Schedule:
    """Per stratum, lowest first: its naive plans and its ``(predicate,
    plan)`` leads.  Memoized: programs are immutable (``lru_cache``
    memoizes no exception, so a non-stratified program raises each call)."""
    strata = stratify(program)
    schedule = []
    for level in range(max(strata.values(), default=0) + 1):
        rules = [rule for rule in program.rules if strata[rule.head.predicate] == level]
        heads = {rule.head.predicate for rule in rules}
        # Only a literal over this level's own heads ever sees a delta.
        leads = tuple(
            (item.atom.predicate, compile_plan(rule, index))
            for rule in rules
            for index, item in enumerate(rule.body)
            if isinstance(item, Literal) and item.positive
            and item.atom.predicate in heads
        )
        schedule.append((tuple(map(compile_plan, rules)), leads))
    return tuple(schedule)


def seminaive_stratified(
    program: Program,
    database: Database,
    registry: Optional[FunctionRegistry] = None,
    max_rounds: int = 100_000,
    budget: Optional[EvaluationBudget] = None,
    max_atoms: Optional[int] = None,
) -> Dict[str, FrozenSet[Tuple[Value, ...]]]:
    """Evaluate a stratified program directly (no grounding).

    Returns predicate → derived rows (IDB and EDB alike).  Raises
    :class:`~repro.datalog.stratification.NotStratifiedError` on
    non-stratified input and, like the grounder for the same two bounds,
    :class:`~repro.datalog.grounding.GroundingBudgetExceeded` (a
    ``BudgetExceeded``) if a stratum exceeds ``max_rounds`` or the
    model, database included, ``max_atoms`` rows (function symbols
    without guards).  ``budget`` adds deadline/step/fact governance:
    one step per firing and per rule instance, one fact per new row.

    The strata and each stratum's compiled plans are fixed per program
    (:func:`_schedule`); a call pays for a fresh kernel — the database
    loaded, each stratum's indexes registered on it — and the rounds.
    """
    schedule = _schedule(program)
    state = JoinKernel(registry)
    for predicate in database.predicates():
        state.add_all(predicate, database.rows(predicate))

    def admit(plan, produced):
        fresh = state.add_all(plan.head, produced)
        if budget is not None:
            budget.tick(phase="seminaive")
            for _row in fresh:
                budget.charge_facts()
        return fresh

    def step(index: int, _delta) -> None:
        """A round boundary of stratum ``level``: counted, and bounded."""
        if index < max_rounds:
            fault_point("seminaive.round")
            if budget is not None:
                budget.note_iteration(stratum=level, phase="seminaive")
            if max_atoms is None or sum(map(len, state.facts.values())) <= max_atoms:
                return
        raise GroundingBudgetExceeded(
            f"stratum {level} did not converge within max_rounds={max_rounds}, "
            f"max_atoms={max_atoms}",
            progress=budget.progress if budget is not None else None,
        )

    if budget is not None:  # admit charges a firing after it runs
        budget.check(phase="seminaive")
    for level, (naive, leads) in enumerate(schedule):
        state.register(*naive, *(plan for _predicate, plan in leads))
        firings = ((plan, None) for plan in naive)
        state.close(firings, leads, admit, step, budget=budget, as_set=True)

    return {
        predicate: frozenset(rows) for predicate, rows in state.facts.items()
    }
