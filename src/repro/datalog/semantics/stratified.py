"""Stratified semantics: stratum-by-stratum minimal models.

"If the program is stratified, then the answer can be obtained by
successively computing the minimal model of each stratum" (Section 4).
On stratified programs this coincides with the well-founded and valid
models (which are then total) — asserted by the integration tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ...robustness import EvaluationBudget
from ..ast import Program
from ..grounding import GroundProgram, GroundRule
from ..stratification import NotStratifiedError, stratify
from .fixpoint import least_model_with_oracle
from .interpretations import Interpretation

__all__ = ["stratified_model"]


def stratified_model(
    rule_program: Program,
    ground_program: GroundProgram,
    budget: Optional[EvaluationBudget] = None,
) -> Interpretation:
    """Evaluate a stratified program over its grounding.

    ``rule_program`` supplies the predicate strata; ``ground_program`` is
    its grounding (including EDB facts).  Raises
    :class:`~repro.datalog.stratification.NotStratifiedError` if the
    program is not stratified.
    """
    strata: Dict[str, int] = stratify(rule_program)
    height = max(strata.values(), default=0)

    # One decode per atom, one pass over the rules: each level then walks
    # only the rules whose heads live on it.
    stratum_of = [
        strata.get(predicate, 0) for _atom, predicate, _args in ground_program.atoms()
    ]
    by_level: List[List[GroundRule]] = [[] for _level in range(height + 1)]
    for rule in ground_program.rules:
        by_level[stratum_of[rule.head]].append(rule)

    accumulated: FrozenSet[int] = frozenset()
    for level, level_rules in enumerate(by_level):
        if budget is not None:
            budget.note_iteration(stratum=level, phase="stratified")
        # Lower-stratum results enter as facts.
        seed = [GroundRule(atom) for atom in accumulated]
        decided_below = accumulated

        def oracle(atom: int, _decided=decided_below, _level=level) -> bool:
            if stratum_of[atom] >= _level:
                # A genuinely stratified program never consults this case;
                # it can arise only for atoms pruned by grounding (hence
                # certainly false).
                return True
            return atom not in _decided

        accumulated = least_model_with_oracle(level_rules + seed, oracle, budget)
    return Interpretation.total(accumulated, ground_program.atom_count)
