"""Least fixpoints of ground programs.

The workhorse primitive is :func:`least_model_with_oracle`: the least set
of atoms closed under the rules, where a negative literal ``not q`` is
satisfied iff the supplied *negation oracle* admits ``q``.  Every other
semantics in this package is built from calls to this primitive with
different oracles:

* minimal model of a positive program — no negative literals at all;
* stratified semantics — oracle reads the completed lower strata;
* well-founded / valid — alternating oracles (Sections 2.2 / 5 of the
  paper);
* stable models — oracle reads the candidate model (the Gelfond–Lifschitz
  reduct).

The implementation is dependency-counting (semi-naive); the tests check
it, and benchmark P2 times it, against a naive sweep kept test-side
(``tests/datalog/least_model_reference.py``).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence, Set

from ...robustness import EvaluationBudget
from ..grounding import GroundProgram, GroundRule, RuleIndex

__all__ = [
    "least_model_with_oracle",
    "minimal_model",
    "PositiveProgramRequired",
]


class PositiveProgramRequired(ValueError):
    """Raised when a minimal model is requested for a program with negation."""


def least_model_with_oracle(
    rules: Sequence[GroundRule],
    negation_oracle: Callable[[int], bool],
    budget: Optional[EvaluationBudget] = None,
) -> FrozenSet[int]:
    """Dependency-counting (semi-naive) least model.

    A rule contributes its head once all positive body atoms are derived
    and every negative body atom ``q`` satisfies ``negation_oracle(q)``
    (read: "``not q`` holds").  The oracle must be static for the duration
    of the call.  Runs in time linear in total rule size; handed a
    :class:`~repro.datalog.grounding.RuleIndex`
    (:attr:`GroundProgram.indexed_rules`), a call costs the negative
    literals it consults and the atoms it derives, not the rule list.

    ``budget`` (optional) is charged one step per rule admitted and per
    derived atom, and its deadline/cancellation are honoured.
    """
    if budget is not None:
        budget.check(phase="least-model")
    index = rules if isinstance(rules, RuleIndex) else RuleIndex(rules)
    heads, watchers = index.heads, index.watchers
    missing = index.counts[:]
    blocked = 0
    for rule_index, neg in index.negated:
        for atom in neg:
            if not negation_oracle(atom):
                missing[rule_index] = -1  # never reaches zero
                blocked += 1
                break
    if budget is not None:
        budget.tick(len(heads) - blocked)

    derived: Set[int] = set()
    for rule_index in index.bodiless:
        if missing[rule_index] == 0:
            derived.add(heads[rule_index])
    queue: List[int] = list(derived)
    if budget is not None:
        budget.charge_facts(len(derived))

    while queue:
        atom = queue.pop()
        for rule_index in watchers.get(atom, ()):
            missing[rule_index] -= 1
            if missing[rule_index] == 0:
                head = heads[rule_index]
                if head not in derived:
                    derived.add(head)
                    queue.append(head)
                    if budget is not None:
                        budget.tick()
                        budget.charge_facts()
    return frozenset(derived)


def minimal_model(
    program: GroundProgram, budget: Optional[EvaluationBudget] = None
) -> FrozenSet[int]:
    """The minimal model of a *positive* ground program.

    This is the classical Horn-program semantics ("the tuples in the
    relations are those derived from the program", Section 2.1).  Raises
    :class:`PositiveProgramRequired` if any rule has a negative literal.
    """
    for rule in program.rules:
        if rule.neg:
            raise PositiveProgramRequired(
                "program has negative literals; use stratified/well-founded/"
                "valid semantics instead"
            )
    return least_model_with_oracle(program.indexed_rules, lambda _atom: True, budget)
