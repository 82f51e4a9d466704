"""Semiring-annotated evaluation of stratified programs (K-relations).

The boolean engines answer "is this row derivable?"; the annotated
evaluator answers "with what annotation?" over any commutative semiring
(:mod:`repro.semiring`).  A rule body multiplies (``⊗``) the
annotations of its matched literals, alternative derivations of the
same head row add (``⊕``), and EDB facts contribute their explicit
annotation or the semiring's ``from_edb`` default.

Rule instances come off the join kernel (:mod:`repro.datalog.kernel`),
its fifth client: :func:`instance_plan` compiles each rule once more
with the head widened to the head arguments followed by every positive
body atom's, so the kernel's leaf row *is* the rule instance, and
:func:`accumulate` computes the instance's weight outside the kernel as
the ``⊗`` of the body rows' annotations.  The kernel's facts hold the
*support* (the rows with a non-zero annotation), which is all a join or
a negation gate ever asks about; the firing itself is semiring-blind.

:func:`annotated_model` is stratum-wise Jacobi iteration: within a
stratum, every round recomputes each head predicate's full annotation
map from the previous round's maps (plus the finished lower strata),
until a round is a fixpoint.  This is the classical algebraic fixpoint
for ω-continuous semirings and the library's from-scratch evaluator —
the oracle of the service's maintenance engine
(:mod:`repro.service.dbsp.engine`), whose annotated views build by
their own maintenance instead.  Convergence per shipped semiring:

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

from functools import lru_cache
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import BudgetExceeded
from ..semiring import Semiring
from .ast import Literal, PredAtom, Program, Rule
from .database import Database
from .kernel import JoinKernel, Plan, compile_plan
from .stratification import stratify

__all__ = [
    "AnnotationMap",
    "InstancePlan",
    "accumulate",
    "annotated_model",
    "edb_annotations",
    "instance_plan",
]

Row = Tuple[Value, ...]
#: predicate → row → annotation (zero-free: stored rows are non-zero).
AnnotationMap = Dict[str, Dict[Row, object]]


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


class InstancePlan(NamedTuple):
    """A rule compiled so that each leaf row is one whole instance."""

    plan: Plan
    #: Head arity: the head row is ``instance[:width]``.
    width: int
    #: ``(predicate, start, stop)`` of each positive body atom's row.
    spans: Tuple[Tuple[str, int, int], ...]


@lru_cache(maxsize=4096)
def instance_plan(rule: Rule, goal: bool = False) -> InstancePlan:
    """``rule`` with its head widened to the whole instance.

    Negated literals and comparisons stay in the body as the tests they
    are.  With ``goal`` a literal over the head arguments is appended
    and leads the plan: fired with a set of head rows it enumerates
    exactly the instances deriving those rows (the caller's rows are the
    goal's only extension — the kernel never looks the predicate up).
    """
    args = list(rule.head.args)
    spans = []
    for literal in rule.positive_literals():
        spans.append((literal.atom.predicate, len(args), len(args) + len(literal.atom.args)))
        args.extend(literal.atom.args)
    body, lead = rule.body, None
    if goal:
        body += (Literal(PredAtom(f"{rule.head.predicate}@goal", rule.head.args)),)
        lead = len(rule.body)
    widened = Rule(PredAtom(rule.head.predicate, tuple(args)), body)
    return InstancePlan(compile_plan(widened, lead), len(rule.head.args), tuple(spans))


def accumulate(
    instances: Iterable[Row],
    compiled: InstancePlan,
    maps: AnnotationMap,
    semiring: Semiring,
    into: Dict[Row, object],
) -> None:
    """``⊕`` each instance's weight — the ``⊗`` of its body rows'
    annotations in ``maps`` — into ``into[head row]``.  ``instances`` is
    what :meth:`~repro.datalog.kernel.JoinKernel.fire` returned for
    ``compiled.plan`` over a kernel holding the support of ``maps``."""
    _plan, width, spans = compiled
    tables = [(maps.get(predicate, {}), start, stop) for predicate, start, stop in spans]
    add, mul, one = semiring.add, semiring.mul, semiring.one
    for instance in instances:
        weight = one
        for table, start, stop in tables:
            annotation = table[instance[start:stop]]
            weight = annotation if weight is one else mul(weight, annotation)
        head_row = instance[:width]
        previous = into.get(head_row)
        into[head_row] = weight if previous is None else add(previous, weight)


def annotated_model(
    program: Program,
    database: Database,
    semiring: Semiring,
    registry: Optional[FunctionRegistry] = None,
    max_rounds: int = 10_000,
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
    strata = stratify(program)
    edb = edb_annotations(database, semiring)
    maps: AnnotationMap = {predicate: dict(rows) for predicate, rows in edb.items()}
    kernel = JoinKernel(registry)
    for predicate, rows in maps.items():
        kernel.add_all(predicate, rows)

    for level in range(max(strata.values(), default=0) + 1):
        plans = [
            instance_plan(rule)
            for rule in program.rules
            if strata[rule.head.predicate] == level
        ]
        if not plans:
            continue
        kernel.register(*(compiled.plan for compiled in plans))
        heads = {compiled.plan.head for compiled in plans}
        for _round in range(max_rounds):
            fresh = {predicate: dict(edb.get(predicate, {})) for predicate in heads}
            for compiled in plans:
                accumulate(
                    kernel.fire(compiled.plan),
                    compiled,
                    maps,
                    semiring,
                    fresh[compiled.plan.head],
                )
            stable = True
            for predicate, rows in fresh.items():
                rows = {
                    row: annotation
                    for row, annotation in rows.items()
                    if not semiring.is_zero(annotation)
                }
                current = maps.get(predicate, {})
                if rows == current:
                    continue
                stable = False
                kernel.add_all(predicate, rows.keys() - current.keys())
                for row in current.keys() - rows.keys():
                    kernel.remove(predicate, row)
                maps[predicate] = rows
            if stable:
                break
        else:
            raise BudgetExceeded(
                f"annotated stratum {level} did not stabilize within "
                f"{max_rounds} rounds under semiring {semiring.name!r} — "
                "for non-idempotent semirings (naturals) this is the "
                "documented divergence over a cyclic derivation space"
            )

    return maps
