"""Theorem 6.2 round trips and cross-paradigm equivalence checking.

The theorem: *the d.i. deductive language, the safe deductive language,
the algebra=, and the IFP-algebra= are equivalent*.  These helpers
certify the equivalence **on a concrete database**: they evaluate a query
in one paradigm, translate it to the other, evaluate there, and compare
the three-valued answers member by member.  Tests and benchmarks call
them over the shared corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..datalog.ast import Program
from ..datalog.database import Database
from ..datalog.engine import run
from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry, Universe
from ..relations.values import Value
from .algebra_to_datalog import translate_program, translation_registry
from .datalog_to_algebra import datalog_to_algebra
from .encoding import database_to_environment, environment_to_database, relation_rows
from .programs import AlgebraProgram
from .valid_eval import EvalLimits, ValidEvalResult, valid_evaluate

__all__ = [
    "ThreeValuedAnswer",
    "EquivalenceReport",
    "algebra_answers_native",
    "algebra_answers_translated",
    "datalog_answers",
    "check_algebra_roundtrip",
    "check_datalog_roundtrip",
]


@dataclass(frozen=True)
class ThreeValuedAnswer:
    """True and undefined member sets of one defined set / predicate."""

    true: FrozenSet[Value]
    undefined: FrozenSet[Value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeValuedAnswer):
            return NotImplemented
        return self.true == other.true and self.undefined == other.undefined

    def __hash__(self) -> int:
        return hash((self.true, self.undefined))


@dataclass
class EquivalenceReport:
    """Per-name comparison of two evaluation routes."""

    matches: bool
    details: Dict[str, Tuple[ThreeValuedAnswer, ThreeValuedAnswer]] = field(
        default_factory=dict
    )

    def mismatches(self) -> List[str]:
        """Names on which the two routes disagree."""
        return [
            name for name, (left, right) in self.details.items() if left != right
        ]

    def __repr__(self) -> str:
        verdict = "EQUIVALENT" if self.matches else f"MISMATCH on {self.mismatches()}"
        return f"<EquivalenceReport {verdict} ({len(self.details)} names)>"


def _compare(
    left: Mapping[str, ThreeValuedAnswer], right: Mapping[str, ThreeValuedAnswer]
) -> EquivalenceReport:
    names = set(left) | set(right)
    empty = ThreeValuedAnswer(frozenset(), frozenset())
    details = {
        name: (left.get(name, empty), right.get(name, empty)) for name in names
    }
    matches = all(a == b for a, b in details.values())
    return EquivalenceReport(matches, details)


def algebra_answers_native(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    universe: Optional[Universe] = None,
    limits: EvalLimits = EvalLimits(),
) -> Dict[str, ThreeValuedAnswer]:
    """Evaluate with the native three-valued evaluator."""
    result = valid_evaluate(
        program, environment, registry=registry, universe=universe, limits=limits
    )
    return {
        name: ThreeValuedAnswer(result.true[name], result.undefined[name])
        for name in result.names()
    }


def algebra_answers_translated(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    semantics: str = "valid",
    max_atoms: int = 1_000_000,
) -> Dict[str, ThreeValuedAnswer]:
    """Evaluate via Proposition 5.4: translate to deduction, run the valid
    (or well-founded) engine, decode."""
    registry = registry or translation_registry()
    translation = translate_program(program)
    database = environment_to_database(environment, {})
    for name in program.database_relations:
        if name not in database.predicates():
            database.declare(name)
    outcome = run(
        translation.program,
        database,
        semantics=semantics,
        registry=registry,
        max_atoms=max_atoms,
    )
    answers: Dict[str, ThreeValuedAnswer] = {}
    for name, predicate in translation.predicate_of.items():
        answers[name] = ThreeValuedAnswer(
            frozenset(row[0] for row in outcome.true_rows(predicate)),
            frozenset(row[0] for row in outcome.undefined_rows(predicate)),
        )
    return answers


def datalog_answers(
    program: Program,
    database: Database,
    predicates: Optional[Tuple[str, ...]] = None,
    semantics: str = "valid",
    registry: Optional[FunctionRegistry] = None,
) -> Dict[str, ThreeValuedAnswer]:
    """Evaluate a deductive program; answers keyed by predicate, with rows
    encoded as set members (so they compare against algebra answers)."""
    from .encoding import row_to_value

    registry = registry or translation_registry()
    outcome = run(program, database, semantics=semantics, registry=registry)
    names = predicates or tuple(sorted(program.idb_predicates()))
    answers: Dict[str, ThreeValuedAnswer] = {}
    for predicate in names:
        answers[predicate] = ThreeValuedAnswer(
            frozenset(row_to_value(row) for row in outcome.true_rows(predicate)),
            frozenset(row_to_value(row) for row in outcome.undefined_rows(predicate)),
        )
    return answers


def check_algebra_roundtrip(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
) -> EquivalenceReport:
    """algebra= → deduction → compare with the native evaluation
    (Proposition 5.4 + the Section 2.2 computation agree)."""
    registry = registry or translation_registry()
    native = algebra_answers_native(program, environment, registry=registry)
    translated = algebra_answers_translated(program, environment, registry=registry)
    return _compare(native, translated)


def check_datalog_roundtrip(
    program: Program,
    database: Database,
    registry: Optional[FunctionRegistry] = None,
) -> EquivalenceReport:
    """safe deduction → algebra= → compare with direct deduction
    (Proposition 6.1)."""
    registry = registry or translation_registry()
    direct = datalog_answers(program, database, registry=registry)

    translation = datalog_to_algebra(program)
    environment = database_to_environment(database)
    for name in translation.program.database_relations:
        if name not in environment:
            environment[name] = Relation([], name=name)
    via_algebra = algebra_answers_native(
        translation.program, environment, registry=registry
    )
    return _compare(direct, via_algebra)
