"""Semiring-annotated evaluation of stratified programs (K-relations).

The boolean engines answer "is this row derivable?"; the annotated
evaluator answers "with what annotation?" over any commutative semiring
(:mod:`repro.semiring`).  A rule body multiplies (``⊗``) the
annotations of its matched literals, alternative derivations of the
same head row add (``⊕``), and EDB facts contribute their explicit
annotation or the semiring's ``from_edb`` default.

Evaluation is stratum-wise Jacobi iteration: within a stratum, every
round recomputes each head predicate's full annotation map from the
previous round's maps (plus the finished lower strata), until a round
is a fixpoint.  This is the classical algebraic fixpoint for
ω-continuous semirings; convergence per shipped semiring:

* ``bool`` / ``why`` — idempotent and finite-carrier: always converges
  (round k holds the derivations of depth ≤ k; both stabilize once
  every row's witness set is saturated).
* ``tropical`` — non-negative weights make each row's value a
  non-increasing sequence over a finite set of path costs
  (Bellman–Ford); converges in ≤ |rows| rounds.
* ``naturals`` — converges exactly when the derivation space is finite
  (e.g. recursion over acyclic data).  A cyclic derivation space has
  no finite bag annotation; the round cap then raises
  :class:`~repro.robustness.BudgetExceeded` rather than looping.

Negation stays boolean: a negative literal is a gate (row absent from
the lower stratum ⇒ the derivation goes through unweighted, present ⇒
it is killed).  This is the standard why-provenance treatment — only
positive support is tracked.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import BudgetExceeded, EvaluationBudget
from ..semiring import Semiring
from .ast import Const, Literal, Program, Rule, Var, eval_term
from .binding import _compare, compiled_binding_order
from .database import Database
from .stratification import stratify

__all__ = ["AnnotationMap", "WeightedEvaluator", "annotated_model", "edb_annotations"]

Row = Tuple[Value, ...]
#: predicate → row → annotation (zero-free: stored rows are non-zero).
AnnotationMap = Dict[str, Dict[Row, object]]
#: ``source(match_index, literal)`` → the row→annotation map that match
#: literal reads — the hook the delta disciplines plug into.
RowSource = Callable[[int, Literal], Mapping[Row, object]]


def edb_annotations(database: Database, semiring: Semiring) -> AnnotationMap:
    """The K-relation of the EDB: explicit annotations where supplied,
    the semiring's ``from_edb`` default elsewhere; zeros dropped."""
    maps: AnnotationMap = {}
    for predicate in database.predicates():
        explicit = database.annotations(predicate)
        bucket: Dict[Row, object] = {}
        for row in database.rows(predicate):
            annotation = explicit.get(row)
            if annotation is None:
                annotation = semiring.from_edb(predicate, row)
            if not semiring.is_zero(annotation):
                bucket[row] = annotation
        maps[predicate] = bucket
    return maps


class WeightedEvaluator:
    """Annotation maps plus the weighted rule-firing walker.

    The walker follows the compiled binding order step by step (it is
    not on the join kernel of :mod:`repro.datalog.kernel` yet): each
    ``match`` step multiplies the row's annotation into the running
    weight, and firing yields ``(head_row, weight)`` products.
    """

    def __init__(self, registry: Optional[FunctionRegistry], semiring: Semiring):
        self.registry = registry
        self.semiring = semiring
        self.maps: AnnotationMap = {}

    def annotations(self, predicate: str) -> Dict[Row, object]:
        """Current row → annotation map of a predicate."""
        return self.maps.setdefault(predicate, {})

    def _match_row(
        self, literal: Literal, binding: Dict[Var, Value], row: Row
    ) -> Optional[Dict[Var, Value]]:
        args = literal.atom.args
        if len(row) != len(args):
            return None
        extended = dict(binding)
        deferred = []
        for arg, value in zip(args, row):
            if isinstance(arg, Var):
                if arg in extended:
                    if extended[arg] != value:
                        return None
                else:
                    extended[arg] = value
            elif isinstance(arg, Const):
                if arg.value != value:
                    return None
            else:
                deferred.append((arg, value))
        for term, value in deferred:
            if eval_term(term, extended, self.registry) != value:
                return None
        return extended

    def fire(
        self,
        rule: Rule,
        order,
        source: RowSource,
        budget: Optional[EvaluationBudget] = None,
    ) -> List[Tuple[Row, object]]:
        """All ``(head_row, weight)`` products of one rule.

        ``source`` picks the row/annotation map each positive match
        literal reads (by its 0-based match index) — the from-scratch
        fixpoint reads the evaluator's own maps everywhere, the delta
        discipline substitutes new/delta/old views per position.
        Negative literals gate on the evaluator's maps (the negated
        predicate is finished by stratification).
        """
        semiring = self.semiring
        produced: List[Tuple[Row, object]] = []
        if budget is not None:
            budget.tick(phase="annotated")

        def walk(step: int, binding: Dict[Var, Value], weight, match_seen: int) -> None:
            if step == len(order):
                head_row = tuple(
                    eval_term(arg, binding, self.registry) for arg in rule.head.args
                )
                if all(value is not None for value in head_row):
                    if budget is not None:
                        budget.tick()
                    produced.append((head_row, weight))
                return
            kind, payload = order[step]
            if kind == "match":
                literal: Literal = payload
                rows = source(match_seen, literal)
                for row, annotation in list(rows.items()):
                    extended = self._match_row(literal, binding, row)
                    if extended is not None:
                        walk(
                            step + 1,
                            extended,
                            semiring.mul(weight, annotation),
                            match_seen + 1,
                        )
                return
            if kind == "assign":
                mode, comparison = payload
                if mode == "assign-left":
                    variable, expr = comparison.left, comparison.right
                else:
                    variable, expr = comparison.right, comparison.left
                value = eval_term(expr, binding, self.registry)
                if value is None:
                    return
                extended = dict(binding)
                extended[variable] = value
                walk(step + 1, extended, weight, match_seen)
                return
            if kind == "test":
                comparison = payload
                left = eval_term(comparison.left, binding, self.registry)
                right = eval_term(comparison.right, binding, self.registry)
                if left is not None and right is not None and _compare(
                    comparison.op, left, right
                ):
                    walk(step + 1, binding, weight, match_seen)
                return
            if kind == "negtest":
                literal = payload
                row = tuple(
                    eval_term(arg, binding, self.registry)
                    for arg in literal.atom.args
                )
                if any(value is None for value in row):
                    return
                if row not in self.annotations(literal.atom.predicate):
                    walk(step + 1, binding, weight, match_seen)
                return
            raise AssertionError(kind)

        walk(0, {}, semiring.one, 0)
        return produced


def annotated_model(
    program: Program,
    database: Database,
    semiring: Semiring,
    registry: Optional[FunctionRegistry] = None,
    strata: Optional[Mapping[str, int]] = None,
    max_rounds: int = 10_000,
    budget: Optional[EvaluationBudget] = None,
) -> AnnotationMap:
    """The annotated least model of a stratified program.

    Returns predicate → row → annotation for IDB and EDB predicates
    alike (EDB rows carry their effective base annotations; an IDB
    predicate that also has EDB facts combines them with ``⊕``).  The
    support — the set of non-zero rows — coincides with the boolean
    model for every shipped semiring, since none has zero-divisors and
    all default EDB annotations are non-zero.

    Raises :class:`~repro.robustness.BudgetExceeded` when a stratum
    fails to stabilize within ``max_rounds`` — for the naturals this is
    the documented divergence of bag semantics over a cyclic derivation
    space, not a tuning problem.
    """
    if strata is None:
        strata = stratify(program)
    height = max(strata.values(), default=0)

    edb = edb_annotations(database, semiring)
    state = WeightedEvaluator(registry, semiring)
    state.maps = {predicate: dict(rows) for predicate, rows in edb.items()}

    def read_state(_index: int, literal: Literal) -> Mapping[Row, object]:
        return state.annotations(literal.atom.predicate)

    for level in range(height + 1):
        level_rules = [
            (rule, compiled_binding_order(rule))
            for rule in program.rules
            if strata[rule.head.predicate] == level
        ]
        if not level_rules:
            continue
        heads = {rule.head.predicate for rule, _order in level_rules}
        for _round in range(max_rounds):
            if budget is not None:
                budget.note_iteration(stratum=level, phase="annotated")
            current = {
                predicate: state.maps.get(predicate, {}) for predicate in heads
            }
            fresh: Dict[str, Dict[Row, object]] = {
                predicate: dict(edb.get(predicate, {})) for predicate in heads
            }
            for rule, order in level_rules:
                for head_row, weight in state.fire(rule, order, read_state, budget):
                    if semiring.is_zero(weight):
                        continue
                    bucket = fresh[rule.head.predicate]
                    previous = bucket.get(head_row)
                    bucket[head_row] = (
                        weight
                        if previous is None
                        else semiring.add(previous, weight)
                    )
            for predicate in heads:
                fresh[predicate] = {
                    row: annotation
                    for row, annotation in fresh[predicate].items()
                    if not semiring.is_zero(annotation)
                }
            if all(fresh[predicate] == current[predicate] for predicate in heads):
                break
            for predicate in heads:
                if budget is not None:
                    grown = len(fresh[predicate]) - len(current[predicate])
                    for _ in range(max(0, grown)):
                        budget.charge_facts()
                state.maps[predicate] = fresh[predicate]
        else:
            raise BudgetExceeded(
                f"annotated stratum {level} did not stabilize within "
                f"{max_rounds} rounds under semiring {semiring.name!r} — "
                "for non-idempotent semirings (naturals) this is the "
                "documented divergence over a cyclic derivation space",
                progress=budget.progress if budget is not None else None,
            )

    return {predicate: dict(rows) for predicate, rows in state.maps.items()}
