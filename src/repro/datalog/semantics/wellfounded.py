"""Well-founded semantics via the alternating fixpoint.

Van Gelder–Ross–Schlipf [24 in the paper].  The alternating fixpoint
computes an increasing chain of *underestimates* ``T_i`` (certainly true)
and a decreasing chain of *overestimates* ``O_i`` (possibly true):

    ``O_i``  = least model where ``not q`` holds iff ``q ∉ T_i``
    ``T_{i+1}`` = least model where ``not q`` holds iff ``q ∉ O_i``

At the limit, true = ``T``, false = complement of ``O``, undefined =
``O − T``.  The paper's valid computation (Section 2.2) follows the same
alternation; ``repro.datalog.semantics.valid`` implements it in the
paper's own vocabulary and the two are cross-checked in tests.

:func:`alternating_fixpoint_trace` runs that loop over the whole
program, as the text states it.  :func:`well_founded_model` (and
``valid_model``) solve one strongly connected component of the atom
dependency graph at a time instead, dependencies first
(:func:`solve_by_component`).  The well-founded model is modular over
the condensation: an atom's value depends only on the atoms it reaches,
so once those below a component are final, the component's model is the
well-founded model of its own rules with every lower atom replaced by
its value.  A component that is one atom without a self-edge — every
position of an acyclic game — is then a single Kleene evaluation, and
the alternation runs only inside cycles, each on its own atoms: a win
chain of *n* moves costs O(n), where alternating the whole program
costs O(n²).
"""

from __future__ import annotations

from typing import Collection, FrozenSet, List, Optional, Set, Tuple

from ...digraph import strongly_connected_components
from ...robustness import EvaluationBudget
from ..grounding import GroundProgram, GroundRule, RuleIndex
from .fixpoint import least_model_with_oracle
from .interpretations import Interpretation

__all__ = ["well_founded_model", "alternating_fixpoint_trace"]


def alternating_fixpoint_trace(
    program: GroundProgram, budget: Optional[EvaluationBudget] = None
) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """The sequence of ``(T_i, O_i)`` pairs until stabilization."""
    trace: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []
    true_set: FrozenSet[int] = frozenset()
    while True:
        if budget is not None:
            budget.note_iteration(phase="alternating-fixpoint")
        over = least_model_with_oracle(
            program.indexed_rules, lambda atom: atom not in true_set, budget
        )
        trace.append((true_set, over))
        next_true = least_model_with_oracle(
            program.indexed_rules, lambda atom: atom not in over, budget
        )
        if next_true == true_set:
            return trace
        true_set = next_true


def well_founded_model(
    program: GroundProgram, budget: Optional[EvaluationBudget] = None
) -> Interpretation:
    """The well-founded (three-valued) model of a ground program."""
    return solve_by_component(program, budget, "alternating-fixpoint")


def _kleene(rules: List[GroundRule], true: Set[int], possible: Set[int]) -> int:
    """The Kleene value of an atom whose rules read only final atoms: the
    best rule's worst literal, 2 true, 1 undefined, 0 false."""
    best = 0
    for rule in rules:
        value = 2
        for atom in rule.pos:
            if atom not in true:
                if atom not in possible:
                    value = 0
                    break
                value = 1
        else:
            for atom in rule.neg:
                if atom in true:
                    value = 0
                    break
                if atom in possible:
                    value = 1
        if value > best:
            best = value
            if best == 2:
                break
    return best


def _reduce(
    rule: GroundRule, component: Collection[int], true: Set[int], possible: Set[int]
) -> Optional[GroundRule]:
    """``rule`` with its literals on lower atoms read off their final
    values: None when one is false; a true one dropped; an undefined one,
    whichever its sign, kept as ``not q`` — admitted by the overestimate's
    oracle, refused by the underestimate's, exactly as an undefined atom
    is."""
    pos: List[int] = []
    neg: List[int] = []
    for atom in rule.pos:
        if atom in component:
            pos.append(atom)
        elif atom not in true:
            if atom not in possible:
                return None
            neg.append(atom)
    for atom in rule.neg:
        if atom in component:
            neg.append(atom)
        elif atom in true:
            return None
        elif atom in possible:
            neg.append(atom)
    return GroundRule(rule.head, tuple(pos), tuple(neg))


def solve_by_component(
    program: GroundProgram, budget: Optional[EvaluationBudget], phase: str
) -> Interpretation:
    """The well-founded model, component by component.

    ``strongly_connected_components`` emits the components of the
    head → body-atom graph successors first, so each one is solved after
    every atom it reads.  One atom that does not read itself is decided
    by :func:`_kleene`.  Any other component runs the alternation on its
    rules alone, reduced by :func:`_reduce` — ``O`` with ``not q``
    admitted iff ``q ∉ T``, ``T`` with it admitted iff ``q`` is the
    component's and ``q ∉ O``.  Each component charges ``budget`` a step
    (``phase`` names it), each of its rounds one iteration.
    """
    count = program.atom_count
    rules_of: List[List[GroundRule]] = [[] for _ in range(count)]
    reads: List[List[int]] = [[] for _ in range(count)]
    for rule in program.rules:
        rules_of[rule.head].append(rule)
        reads[rule.head].extend(rule.pos)
        reads[rule.head].extend(rule.neg)

    true: Set[int] = set()
    possible: Set[int] = set()  # true or undefined
    for component in strongly_connected_components(range(count), reads.__getitem__):
        if budget is not None:
            budget.tick(phase=phase)
        if len(component) == 1:
            (atom,) = component
            if atom not in reads[atom]:
                value = _kleene(rules_of[atom], true, possible)
                if value:
                    possible.add(atom)
                    if value == 2:
                        true.add(atom)
                    if budget is not None:
                        budget.charge_facts()
                continue
        rules = []
        for atom in component:
            for rule in rules_of[atom]:
                reduced = _reduce(rule, component, true, possible)
                if reduced is not None:
                    rules.append(reduced)
        index = RuleIndex(rules)
        local_true: FrozenSet[int] = frozenset()
        while True:
            if budget is not None:
                budget.note_iteration(phase=phase)
            over = least_model_with_oracle(
                index, lambda atom: atom not in local_true, budget
            )
            next_true = least_model_with_oracle(
                index, lambda atom: atom in component and atom not in over, budget
            )
            if next_true == local_true:
                break
            local_true = next_true
        true |= local_true
        possible |= over
    return Interpretation.three_valued(true, frozenset(range(count)) - possible)
