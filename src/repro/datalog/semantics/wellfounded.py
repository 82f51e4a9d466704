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
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ...robustness import EvaluationBudget
from ..grounding import GroundProgram
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
    trace = alternating_fixpoint_trace(program, budget)
    true_set, over = trace[-1]
    false_set = frozenset(range(program.atom_count)) - over
    return Interpretation.three_valued(true_set, false_set)
