"""Declarative semantics for deductive programs.

One module per semantics, all over the same propositional
:class:`~repro.datalog.grounding.GroundProgram`:

========================  ====================================================
``fixpoint``              minimal model of positive programs (+ the oracle
                          primitive everything else is built from)
``stratified``            stratum-by-stratum minimal models (Section 4)
``inflationary``          negation = "not derived so far" (Section 5)
``wellfounded``           alternating fixpoint [24]
``valid``                 the paper's Section 2.2 valid computation [6]
``stable``                Gelfond–Lifschitz stable models [11]
========================  ====================================================
"""

from .fixpoint import (
    PositiveProgramRequired,
    least_model_with_oracle,
    minimal_model,
)
from .inflationary import inflationary_fixpoint, inflationary_model, inflationary_stages
from .interpretations import Interpretation, Truth
from .stable import TooManyChoiceAtoms, is_stable_model, stable_models
from .stratified import stratified_model
from .valid import ValidTrace, valid_computation_trace, valid_model
from .wellfounded import alternating_fixpoint_trace, well_founded_model

__all__ = [
    "Interpretation",
    "Truth",
    "minimal_model",
    "least_model_with_oracle",
    "PositiveProgramRequired",
    "stratified_model",
    "inflationary_fixpoint",
    "inflationary_model",
    "inflationary_stages",
    "well_founded_model",
    "alternating_fixpoint_trace",
    "valid_model",
    "valid_computation_trace",
    "ValidTrace",
    "stable_models",
    "is_stable_model",
    "TooManyChoiceAtoms",
]
