"""Front door for running deductive queries.

``run(program, database, semantics=...)`` evaluates a program by its
dependency structure and returns a :class:`QueryResult` that exposes
per-predicate true/false/undefined rows — the answer format of a
deductive query "R(x)?" (Section 4).

Negation decides the route, not the caller.  The rules headed outside
the program's *open cone* (:func:`~repro.datalog.stratification.open_cone`)
are a stratified program, and "the answer can be obtained by
successively computing the minimal model of each stratum" (Section 4):
:func:`~repro.datalog.seminaive.seminaive_stratified` evaluates them on
the join kernel into a total model — no ground program, no
propositional solve.  Only the cone's rules are grounded, over that
model as their database, and solved by the requested semantics; a
stratified program never grounds, ``win-move`` grounds whole.

Four inputs keep the whole program on ground-then-solve: an explicit
``ground_program=`` (the reference path the routes are tested against),
``require_complete=False`` (a truncated window was asked for),
``inflationary`` semantics over a program with any negation — ``not q``
reads "not derived *so far*", which is not modular (and holds of a
database relation too in round one: the stages start from nothing).
Without negation the inflationary result *is* the least fixpoint.
And a program that uses one predicate at two arities: a
:class:`Database` keeps one arity per predicate, so the direct model
could not be handed to the cone as its database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional

from ..robustness import EvaluationBudget
from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from .ast import Program, Rule
from .database import Database
from .grounding import GroundProgram, Row, ground
from .semantics.inflationary import inflationary_model
from .semantics.interpretations import Interpretation, Truth
from .semantics.stratified import stratified_model
from .semantics.valid import valid_model
from .semantics.wellfounded import well_founded_model
from .seminaive import seminaive_stratified
from .stratification import SEMANTICS, NotStratifiedError, open_cone

__all__ = ["SEMANTICS", "QueryResult", "run"]


@dataclass(frozen=True)
class QueryResult:
    """The (possibly three-valued) outcome of a deductive query.

    ``lower`` is the total model of everything evaluated directly (the
    database included); ``ground_program`` / ``interpretation``, when
    present, answer for the predicates that grounding's rules define.
    """

    program: Program
    semantics: str
    lower: Mapping[str, FrozenSet[Row]]
    ground_program: Optional[GroundProgram] = None
    interpretation: Optional[Interpretation] = None

    def _solved(self, predicate: str) -> bool:
        return (
            self.ground_program is not None
            and predicate in self.ground_program.idb_predicates
        )

    def true_rows(self, predicate: str) -> FrozenSet[Row]:
        """Rows of a predicate that are certainly true."""
        if self._solved(predicate):
            return self.interpretation.true_rows(self.ground_program, predicate)
        return self.lower.get(predicate, frozenset())

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Rows of a predicate with undefined status."""
        if self._solved(predicate):
            return self.interpretation.undefined_rows(self.ground_program, predicate)
        return frozenset()

    def truth_of(self, predicate: str, *args: Value) -> Truth:
        """Truth value of a ground atom.

        Atoms the grounder proved irrelevant are FALSE (they have no
        possible derivation).
        """
        if not self._solved(predicate):
            return Truth.TRUE if args in self.lower.get(predicate, ()) else Truth.FALSE
        atom_id = self.ground_program.atom_id(predicate, args)
        if atom_id is None:
            return Truth.FALSE
        return self.interpretation.value_of(atom_id)

    def is_total(self) -> bool:
        """Is the model two-valued on every relevant atom?"""
        return self.interpretation is None or self.interpretation.is_total_for(
            self.ground_program
        )

    def unary_relation(self, predicate: str) -> Relation:
        """Read a unary predicate's true rows back as a relation."""
        return Relation(
            (row[0] for row in self.true_rows(predicate)), name=predicate
        )


def _one_arity_each(program: Program) -> bool:
    try:
        program.arities()
    except ValueError:
        return False
    return True


def run(
    program: Program,
    database: Optional[Database] = None,
    semantics: str = "valid",
    registry: Optional[FunctionRegistry] = None,
    max_rounds: int = 10_000,
    max_atoms: int = 1_000_000,
    require_complete: bool = True,
    ground_program: Optional[GroundProgram] = None,
    budget: Optional[EvaluationBudget] = None,
) -> QueryResult:
    """Evaluate ``program`` over ``database`` (routes: module docstring).

    ``semantics`` is one of :data:`SEMANTICS`.  ``stratified`` raises
    :class:`~repro.datalog.stratification.NotStratifiedError` for
    non-stratified programs before evaluating anything; the others
    accept any program.

    ``ground_program`` skips the grounding phase entirely — the caller
    vouches that it is ``ground(program, database, ...)`` — and with it
    the direct route: the whole program is solved propositionally.  The
    differential tests use it as the reference ``run()`` must equal.

    ``max_rounds`` / ``max_atoms`` bound both parts (directly derived
    rows and the cone's possible atoms count against ``max_atoms``
    together; :class:`~repro.datalog.grounding.GroundingBudgetExceeded`
    unless ``require_complete=False``), and ``budget`` is one
    :class:`~repro.robustness.EvaluationBudget` shared by every phase:
    deadlines, step bounds and cancellation apply to the whole query.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}; pick from {SEMANTICS}")
    database = database or Database()
    cone = open_cone(program)
    if semantics == "stratified" and cone:
        raise NotStratifiedError(
            f"program {program.name or ''} is not stratified: "
            f"{', '.join(sorted(cone))} lie on or above a cycle through negation"
        )
    closed, opened = (), program.rules
    split = semantics != "inflationary" or not any(map(Rule.negative_literals, opened))
    split = split and _one_arity_each(program)
    if ground_program is None and require_complete and split:
        closed = tuple(r for r in opened if r.head.predicate not in cone)
        opened = tuple(r for r in opened if r.head.predicate in cone)
    if closed:
        lower = seminaive_stratified(
            Program(closed, program.name),
            database,
            registry=registry,
            max_rounds=max_rounds,
            budget=budget,
            max_atoms=max_atoms,
        )
    else:
        lower = {p: database.rows(p) for p in database.predicates()}
    if ground_program is None and opened:
        rules = Program(opened, program.name)
        if closed:
            # The cone reads part of the lower model; all of it counts.
            reads = rules.predicates()
            database = Database({p: lower[p] for p in reads if p in lower})
            max_atoms -= sum(map(len, lower.values())) - database.fact_count()
        ground_program = ground(
            rules,
            database,
            registry=registry,
            max_rounds=max_rounds,
            max_atoms=max_atoms,
            require_complete=require_complete,
            budget=budget,
        )
    if ground_program is None:
        return QueryResult(program, semantics, lower)
    if semantics == "stratified":
        interpretation = stratified_model(program, ground_program, budget)
    elif semantics == "inflationary":
        interpretation = inflationary_model(ground_program, budget)
    elif semantics == "wellfounded":
        interpretation = well_founded_model(ground_program, budget)
    else:
        interpretation = valid_model(ground_program, budget)
    return QueryResult(program, semantics, lower, ground_program, interpretation)
