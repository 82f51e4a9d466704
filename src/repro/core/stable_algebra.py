"""Stable-model semantics for ``algebra=`` programs (Section 7).

    "The results of this work can be easily adjusted to capture other
    semantics for negation, e.g. the well-founded or the stable-model
    semantics, by modifying the definition of the initial valid model
    accordingly."

This module performs that adjustment for the stable-model semantics, in
both styles:

* **native** (:func:`stable_set_models`) — a total membership assignment
  ``M`` for the defined sets is *stable* when it reproduces itself as the
  least fixpoint of the equations with all negative (subtracted)
  references answered by ``M`` — the Gelfond–Lifschitz construction
  transplanted onto set equations.  The search space is pruned by the
  valid model (its decided memberships hold in every stable assignment).

* **translated** (:func:`algebra_answers_stable`) — Proposition 5.4
  translation followed by the ground stable-model solver; answers are
  reported as *cautious* (in every stable model) and *brave* (in some).

The two agree (tests); and on programs whose valid model is total, the
unique stable assignment coincides with it — e.g. the WIN game on an
even cycle has two stable assignments (the two alternating colourings)
while the valid model leaves everything undefined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry, Universe
from ..relations.values import Value
from ..datalog.semantics.stable import TooManyChoiceAtoms, stable_models
from .algebra_to_datalog import translate_program, translation_registry
from .encoding import environment_to_database
from .programs import AlgebraProgram
from .valid_eval import EvalLimits, _System

__all__ = [
    "StableSetModel",
    "StableAnswers",
    "stable_set_models",
    "algebra_answers_stable",
]


@dataclass(frozen=True)
class StableSetModel:
    """One stable (total) membership assignment for the defined sets."""

    members: Mapping[str, FrozenSet[Value]]

    def relation(self, name: str) -> Relation:
        """One defined set of this model, as a relation."""
        return Relation(self.members[name], name=name)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}:{len(values)}" for name, values in sorted(self.members.items())
        )
        return f"<StableSetModel {inner}>"


def stable_set_models(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    universe: Optional[Universe] = None,
    limits: EvalLimits = EvalLimits(),
    max_choice_memberships: int = 20,
    max_ifp_iterations: int = 10_000,
) -> List[StableSetModel]:
    """All stable membership assignments, natively on the set equations.

    The valid model prunes the search: decided memberships are fixed, and
    only the undefined ones are guessed (Gelfond–Lifschitz transplanted).
    Raises :class:`TooManyChoiceAtoms` past ``max_choice_memberships``
    undefined memberships.
    """
    system = _System(
        program, environment, registry, limits, universe, max_ifp_iterations
    )
    valid = system.valid_model()
    choices: List[Tuple[str, Value]] = [
        (name, value)
        for name in sorted(valid.undefined)
        for value in sorted(valid.undefined[name], key=repr)
    ]
    if len(choices) > max_choice_memberships:
        raise TooManyChoiceAtoms(
            f"{len(choices)} undefined memberships exceed the bound "
            f"{max_choice_memberships}"
        )

    models: List[StableSetModel] = []
    seen: set = set()
    for assignment in itertools.product((False, True), repeat=len(choices)):
        guessed_true = {
            choice for choice, flag in zip(choices, assignment) if flag
        }

        def oracle(name: str, value: Value) -> bool:
            """May we assume value ∉ name?  Read the candidate total model."""
            return value not in valid.true[name] and (name, value) not in guessed_true

        candidate = system.least_model(oracle)
        frozen = tuple(sorted((n, frozenset(v)) for n, v in candidate.items()))
        if frozen in seen:
            continue
        # Gelfond–Lifschitz check: the guess must reproduce itself.
        reproduced = all(
            (value in candidate[name]) == ((name, value) in guessed_true)
            for name, value in choices
        ) and all(valid.true[name] <= candidate[name] for name in candidate)
        if not reproduced:
            continue
        # Exact stability: re-derive against the candidate itself.
        verify = system.least_model(
            lambda name, value: value not in candidate[name]
        )
        if verify == candidate:
            seen.add(frozen)
            models.append(
                StableSetModel({n: frozenset(v) for n, v in candidate.items()})
            )
    models.sort(key=lambda m: tuple(sorted((n, tuple(sorted(map(repr, v)))) for n, v in m.members.items())))
    return models


@dataclass
class StableAnswers:
    """Cautious/brave consequences over the stable models."""

    models: int
    cautious: Dict[str, FrozenSet[Value]]
    brave: Dict[str, FrozenSet[Value]]


def algebra_answers_stable(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    max_choice_atoms: int = 20,
) -> StableAnswers:
    """Stable-model answers via the Proposition 5.4 translation."""
    registry = registry or translation_registry()
    translation = translate_program(program)
    database = environment_to_database(environment, {})
    for name in program.database_relations:
        if name not in database.predicates():
            database.declare(name)
    from ..datalog.grounding import ground

    ground_program = ground(translation.program, database, registry=registry)
    interpretations = stable_models(ground_program, max_choice_atoms=max_choice_atoms)

    names = list(translation.predicate_of)
    per_model: List[Dict[str, FrozenSet[Value]]] = []
    for interpretation in interpretations:
        model: Dict[str, FrozenSet[Value]] = {}
        for name in names:
            predicate = translation.predicate_of[name]
            model[name] = frozenset(
                row[0]
                for row in interpretation.true_rows(ground_program, predicate)
            )
        per_model.append(model)

    if per_model:
        cautious = {
            name: frozenset.intersection(*(m[name] for m in per_model))
            for name in names
        }
        brave = {
            name: frozenset.union(*(m[name] for m in per_model)) for name in names
        }
    else:
        cautious = {name: frozenset() for name in names}
        brave = {name: frozenset() for name in names}
    return StableAnswers(len(per_model), cautious, brave)
