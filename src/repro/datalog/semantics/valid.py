"""The valid computation, exactly as Section 2.2 of the paper presents it.

    "Initially, all the facts are undefined.  At each step of the
    computation, we look at all the possible derivations starting from the
    current set T of true facts, where only facts not in T are allowed to
    be used negatively.  The facts that are not derivable in any such
    computation are assumed to be certainly false, and are therefore added
    to F.  The false facts in F and the true facts in T are then used to
    derive new true facts, that are added to T.  In this derivation, we use
    negatively only facts from F.  The process is repeated (possibly
    transfinitely) until no more true facts can be derived."

On a finite ground program the "possibly transfinite" repetition is a
finite loop.  The two phases are realised with the least-model primitive:

* *possible derivations from T*: least model where ``not q`` is usable
  iff ``q ∉ T`` — everything outside it goes into ``F``;
* *derive new truths*: least model where ``not q`` is usable iff
  ``q ∈ F``.

``F`` only ever grows (facts declared certainly false stay false) and
``T`` only ever grows, so the loop terminates.  This operational
description coincides, on ground programs, with the alternating fixpoint
of the well-founded semantics — the paper's own remark that its results
"can be easily adjusted to capture other declarative semantics" (Section
7) leans on that family resemblance, and our test-suite asserts the
agreement program-by-program against the independent implementation in
``repro.datalog.semantics.wellfounded``.

:func:`valid_computation_trace` runs the loop over the whole program,
word for word.  :func:`valid_model` runs it one strongly connected
component of the atom dependency graph at a time, dependencies first —
the solver ``well_founded_model`` shares.  The two agree because the
valid model is modular over the condensation: an atom's status depends
only on the atoms it reaches, so a component whose lower atoms are final
needs only its own rules, those atoms read off their values.  An
acyclic atom is then decided by one evaluation of its rules; the loop
runs only inside cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from ...robustness import EvaluationBudget
from ..grounding import GroundProgram
from .fixpoint import least_model_with_oracle
from .interpretations import Interpretation
from .wellfounded import solve_by_component

__all__ = ["valid_model", "ValidTrace", "valid_computation_trace"]


@dataclass(frozen=True)
class ValidTrace:
    """One step of the valid computation: the sets after the step."""

    true: FrozenSet[int]
    false: FrozenSet[int]
    possibly_derivable: FrozenSet[int]


def valid_computation_trace(
    program: GroundProgram, budget: Optional[EvaluationBudget] = None
) -> List[ValidTrace]:
    """Run the Section 2.2 loop, returning every intermediate (T, F)."""
    everything = frozenset(range(program.atom_count))
    true_set: FrozenSet[int] = frozenset()
    false_set: FrozenSet[int] = frozenset()
    steps: List[ValidTrace] = []

    while True:
        if budget is not None:
            budget.note_iteration(phase="valid-computation")
        # All possible derivations from T, using negatively only facts
        # not (yet) in T.
        possibly = least_model_with_oracle(
            program.indexed_rules, lambda atom: atom not in true_set, budget
        )
        # Facts with no possible derivation are certainly false.
        false_set = false_set | (everything - possibly)
        # Derive new true facts, using negatively only facts from F.
        next_true = least_model_with_oracle(
            program.indexed_rules, lambda atom: atom in false_set, budget
        )
        steps.append(ValidTrace(next_true, false_set, possibly))
        if next_true == true_set:
            return steps
        true_set = next_true


def valid_model(
    program: GroundProgram, budget: Optional[EvaluationBudget] = None
) -> Interpretation:
    """The (three-valued) valid model of a ground program."""
    return solve_by_component(program, budget, "valid-computation")
