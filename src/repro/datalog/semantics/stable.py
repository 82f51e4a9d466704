"""Stable model semantics (Gelfond–Lifschitz [11 in the paper]).

A two-valued interpretation ``M`` is a *stable model* iff it equals the
minimal model of the Gelfond–Lifschitz reduct ``P^M`` (drop rules with a
negative literal contradicted by ``M``; delete the remaining negative
literals).

The solver first computes the well-founded model — its true atoms belong
to every stable model and its false atoms to none — and then searches
over truth assignments to the *residual* atoms (those the WFS leaves
undefined) that actually appear negatively.  On stratified programs the
residual is empty and the unique stable model is read off directly.

The search is exponential in the residual choice count, which is tiny for
every program in the paper; ``max_choice_atoms`` guards against misuse.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Set

from ...robustness import BudgetExceeded, EvaluationBudget
from ..grounding import GroundProgram
from .fixpoint import least_model_with_oracle
from .interpretations import Interpretation
from .wellfounded import well_founded_model

__all__ = ["stable_models", "is_stable_model", "TooManyChoiceAtoms"]


class TooManyChoiceAtoms(BudgetExceeded):
    """The residual search space is larger than the configured bound."""

    code = "too-many-choice-atoms"


def is_stable_model(
    program: GroundProgram,
    candidate: FrozenSet[int],
    budget: Optional[EvaluationBudget] = None,
) -> bool:
    """Check the Gelfond–Lifschitz condition for a candidate atom set."""
    reduct_model = least_model_with_oracle(
        program.indexed_rules, lambda atom: atom not in candidate, budget
    )
    return reduct_model == candidate


def stable_models(
    program: GroundProgram,
    max_choice_atoms: int = 20,
    budget: Optional[EvaluationBudget] = None,
) -> List[Interpretation]:
    """All stable models, as total interpretations, deterministically ordered.

    Raises :class:`TooManyChoiceAtoms` when more than ``max_choice_atoms``
    WFS-undefined atoms occur in negative bodies.  ``budget`` governs the
    WFS precomputation and every candidate check of the residual search.
    """
    wfs = well_founded_model(program, budget)
    undefined = wfs.undefined_in(program)

    if not undefined:
        # The WFS is total; it is then the unique stable model.
        return [Interpretation.total(wfs.true, program.atom_count)]

    negatively_used: Set[int] = set()
    for rule in program.rules:
        negatively_used.update(rule.neg)
    choice_atoms = sorted(undefined & negatively_used)
    if len(choice_atoms) > max_choice_atoms:
        raise TooManyChoiceAtoms(
            f"{len(choice_atoms)} residual choice atoms exceed the bound "
            f"{max_choice_atoms}"
        )

    models: List[FrozenSet[int]] = []
    seen: Set[FrozenSet[int]] = set()
    for assignment in itertools.product((False, True), repeat=len(choice_atoms)):
        if budget is not None:
            budget.note_iteration(phase="stable-search")
        assumed_true = {
            atom for atom, flag in zip(choice_atoms, assignment) if flag
        }
        # Two-pass: first build the candidate from the guess (negation
        # oracle = WFS verdicts where decided, the guess on residual
        # choice atoms), then verify stability exactly.
        def guess_oracle(atom: int) -> bool:
            if atom in wfs.true:
                return False
            if atom in wfs.false:
                return True
            return atom not in assumed_true

        candidate = least_model_with_oracle(
            program.indexed_rules, guess_oracle, budget
        )
        if candidate in seen:
            continue
        # The guess must be self-supporting: every atom assumed true is
        # derived, and the candidate must pass the exact GL check.
        if not assumed_true <= candidate:
            continue
        if is_stable_model(program, candidate, budget):
            seen.add(candidate)
            models.append(candidate)

    models.sort(key=sorted)
    return [Interpretation.total(model, program.atom_count) for model in models]
