"""Native three-valued evaluation of ``algebra=`` programs.

The semantics of a recursive program ``{S_i = exp_i(...)}`` is the valid
model of its specification (Section 3.2): membership facts are derived by
the Section 2.2 valid computation, where the subtraction operator "performs
inversion of membership" — a membership may be used *negatively* (inside
the right operand of a ``−``) only once it is certainly false.

This module realises that computation directly on the set equations,
without translating to a deductive program:

1. **Candidate universe** — an over-approximation of every equation's
   (and every ``MAP`` node's) possible members, obtained by ignoring
   subtraction: the equations, each ``−`` reduced to its left operand,
   are compiled once into positive rules and closed semi-naively on the
   join kernel (``σ`` over ``×`` is a join there, not a filter over a
   product).  Everything outside it is certainly false in every reading.
2. **Polarity-split derivation** — ``holds(v, exp, sign)`` evaluates
   membership where system-set references at *positive* polarity read the
   current derivation state and references at *negative* polarity (under
   an odd number of ``−``-right nestings) are answered by a negation
   oracle.  Double subtraction therefore flips polarity back, exactly as
   the membership-inversion equations of [5] do.
3. **Alternating fixpoint, by component** — the paper's valid loop: an
   overestimate pass (negatives allowed unless already true),
   certainly-false harvesting, then an underestimate pass (negatives
   allowed only on certainly-false facts), repeated until stable.  It
   runs on each strongly connected component of the *membership graph*
   in turn, dependencies first: a node is a candidate membership
   ``(S, v)``, and its edges are the memberships ``holds`` may read for
   it (through ``MAP`` preimages, ``×`` components and ``σ`` tests that
   pass).  Both passes read memberships of lower components off their
   final true / possibly-true sets.  This equals the loop over the whole
   system because the valid model is modular over the condensation: a
   membership's status depends only on those it reaches.  A membership
   that reads none of its own component is decided by one evaluation of
   each pass, so an acyclic game costs linear, not quadratic, work.

The result is three-valued per defined set; a program is *well-defined on
the given database* when no membership is left undefined (``S = {a} − S``
and the cyclic WIN game of Section 3.2 come out undefined, as the paper
requires).

``IFP`` nodes are pre-eliminated when their bodies do not reach a
recursive name (they are then ordinary IFP-algebra subqueries, total by
Theorem 3.1); programs that recurse *through* an IFP are evaluated via the
translation route (Corollary 3.6), and this evaluator refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..digraph import strongly_connected_components
from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry, Universe
from ..relations.values import Tup, Value
from ..datalog.ast import BodyItem, Comparison, FuncTerm, Literal, PredAtom, Rule, Var
from ..datalog.kernel import JoinKernel
from ..datalog.semantics.interpretations import Truth
from .evaluator import NonTerminating, evaluate
from .expressions import (
    Call,
    Diff,
    Expr,
    Ifp,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
    _rebuild,
    called_names,
    walk,
)
from .funcs import AndTest, Apply, Arg, Comp, CompareTest, MkTup, ScalarExpr, Test
from .funcs import eval_scalar, eval_test
from .programs import AlgebraProgram, ProgramError

__all__ = ["EvalLimits", "ValidEvalResult", "valid_evaluate", "IfpThroughRecursion"]


class IfpThroughRecursion(ProgramError):
    """An IFP body reaches a recursive name; use the translation route."""


@dataclass(frozen=True)
class EvalLimits:
    """Bounds for the candidate-universe closure."""

    max_rounds: int = 500
    max_values: int = 200_000


@dataclass
class ValidEvalResult:
    """Three-valued memberships of every defined set constant."""

    true: Dict[str, FrozenSet[Value]]
    undefined: Dict[str, FrozenSet[Value]]
    candidates: Dict[str, FrozenSet[Value]]
    #: The most alternation rounds one component of the membership graph
    #: took — an over/under pass pair, the last one changing nothing.  1
    #: when every membership is decided by one evaluation (an acyclic
    #: system, ``S = {a}``); 0 when there is no candidate membership.
    rounds: int

    def names(self) -> FrozenSet[str]:
        """Names of the defined set constants."""
        return frozenset(self.true)

    def truth_of(self, name: str, value: Value) -> Truth:
        """MEM(value, name) in the valid interpretation.

        Values outside the candidate universe are certainly false: they
        have no possible derivation.
        """
        if value in self.true[name]:
            return Truth.TRUE
        if value in self.undefined[name]:
            return Truth.UNDEFINED
        return Truth.FALSE

    def relation(self, name: str) -> Relation:
        """The certainly-true members of a defined set, as a relation."""
        return Relation(self.true[name], name=name)

    def undefined_members(self, name: str) -> FrozenSet[Value]:
        """Members whose status the valid model leaves open."""
        return self.undefined[name]

    def is_well_defined(self) -> bool:
        """No membership undefined: the program has an initial valid model
        on this database (the executable reading of Section 3.2's
        well-definedness)."""
        return not any(self.undefined.values())

    def __repr__(self) -> str:
        parts = [
            f"{name}: {len(self.true[name])} true"
            + (f", {len(self.undefined[name])} undefined" if self.undefined[name] else "")
            for name in sorted(self.true)
        ]
        return f"<ValidEvalResult {'; '.join(parts)}>"


# ---------------------------------------------------------------------------
# IFP pre-elimination
# ---------------------------------------------------------------------------


def _eliminate_ifp(
    expr: Expr, recursive: FrozenSet[str], value_of: Callable[[Ifp], Relation]
) -> Expr:
    """Replace IFP nodes that do not reach a recursive name by their
    (two-valued, total — Theorem 3.1) value."""
    if not isinstance(expr, Ifp):
        return _rebuild(expr, lambda node: _eliminate_ifp(node, recursive, value_of))
    reached = called_names(expr.body)
    if reached & recursive:
        raise IfpThroughRecursion(
            f"IFP over {sorted(reached & recursive)} recursive names; "
            f"evaluate via algebra_to_datalog instead (Corollary 3.6)"
        )
    body = _eliminate_ifp(expr.body, recursive, value_of)
    return SetConst(value_of(Ifp(expr.param, body)).items)


# ---------------------------------------------------------------------------
# The candidate universe, compiled
# ---------------------------------------------------------------------------


def _strip(expr: ScalarExpr, sides: Set[int]) -> ScalarExpr:
    """``expr`` with ``x.1`` / ``x.2`` rewritten to ``x``; ``sides`` takes
    which of them it read (0: the pair itself)."""
    if isinstance(expr, Arg):
        sides.add(0)
    elif isinstance(expr, Comp):
        if isinstance(expr.child, Arg) and expr.index <= 2:
            sides.add(expr.index)
            return expr.child
        return Comp(_strip(expr.child, sides), expr.index)
    elif isinstance(expr, MkTup):
        return MkTup(tuple(_strip(item, sides) for item in expr.items))
    elif isinstance(expr, Apply):
        return Apply(expr.name, tuple(_strip(arg, sides) for arg in expr.args))
    return expr


def _split(test: Test) -> Tuple[List[Tuple[ScalarExpr, ScalarExpr]], List[Test]]:
    """``test``'s conjuncts: those of the form ``k₁(x.1) = k₂(x.2)``, either
    way round, as ``(k₁, k₂)`` over the components themselves; the rest."""
    if isinstance(test, AndTest):
        (keys, rest), (more_keys, more) = _split(test.left), _split(test.right)
        return keys + more_keys, rest + more
    halves = {}
    if isinstance(test, CompareTest) and test.op == "=":
        for expr in (test.left, test.right):
            sides: Set[int] = set()
            stripped = _strip(expr, sides)
            if len(sides) == 1:
                halves[sides.pop()] = stripped
    return ([(halves[1], halves[2])], []) if halves.keys() == {1, 2} else ([], [test])


#: One way to enumerate a node's candidates: body items binding a variable.
_Way = Tuple[List[BodyItem], Var]
#: A membership ``value ∈ name``, as ``(name, value)``.
_Node = Tuple[str, Value]


class _Compiler:
    """Set equations, every ``−`` reduced to its left operand, as positive
    rules over member-encoded predicates (a member is a unary row).

    ``∪`` is two rules, ``Call`` the equation's own predicate, ``×`` a
    ``tuple`` term, ``σ`` a partial identity — unless it equates a key of
    ``x.1`` with a key of ``x.2`` over a ``×``, which is a join of two
    helpers ``key@n(key, member)`` — and ``MAP`` a binary predicate
    ``map@n(image, member)`` fused onto whatever enumerates its child:
    readers ignore the member, :meth:`_System.holds` walks it back.
    Scalars and tests stay :func:`eval_scalar` / :func:`eval_test`, as
    functions of this one evaluation.  Rules come out children first.
    """

    def __init__(self, system: "_System"):
        self.system = system
        self.rules: List[Rule] = []
        self.facts: Dict[str, Set[Tuple[Value, ...]]] = {}
        self.functions = FunctionRegistry()
        #: Equal nodes share one predicate; ``maps``: MAP node id → its own.
        self.predicates: Dict[Expr, str] = {}
        self.maps: Dict[int, str] = {}
        self._serial = count(1)

    def _name(self, kind: str) -> str:
        return f"{kind}@{next(self._serial)}"

    def _var(self) -> Var:
        return Var(self._name("V"))

    def _emit(self, head: str, args: Tuple[Var, ...], body: List[BodyItem]) -> None:
        self.rules.append(Rule(PredAtom(head, args), tuple(body)))

    def _apply(self, func: Callable[[Value], Optional[Value]], way: _Way) -> _Way:
        """``way`` through ``out = func(member)`` (undefined: no row)."""
        body, member = way
        name, out = self._name("f"), self._var()
        self.functions.register(name, 1, func)
        return body + [Comparison("=", out, FuncTerm(name, (member,)))], out

    def _scalar(
        self, expr: ScalarExpr, way: _Way, universe: Optional[Universe] = None
    ) -> _Way:
        if universe is None and expr == Arg():
            return way

        def value_of(member: Value) -> Optional[Value]:
            value = eval_scalar(expr, member, self.system.registry)
            return value if universe is None or value in universe else None

        return self._apply(value_of, way)

    def _select(self, test: Test, way: _Way) -> _Way:
        registry = self.system.registry
        return self._apply(
            lambda member: member if eval_test(test, member, registry) else None, way
        )

    def _pair(self, sides: List[BodyItem], left: Var, right: Var) -> _Way:
        out = self._var()
        return sides + [Comparison("=", out, FuncTerm("tuple", (left, right)))], out

    def equation(self, name: str, body: Expr) -> None:
        """The rules of one equation, and of every ``MAP`` in it — those
        only a subtraction reads included."""
        for items, member in self._ways(body):
            self._emit(name, (member,), items)
        for node in walk(body):
            if isinstance(node, Map):
                self.maps[id(node)] = self._atom(node, self._var()).atom.predicate

    def _atom(self, node: Expr, var: Var) -> Literal:
        """A literal ranging ``var`` over the node's candidates."""
        if isinstance(node, Diff):
            return self._atom(node.left, var)
        if isinstance(node, Call):
            return Literal(PredAtom(node.name, (var,)))
        if isinstance(node, RelVar):
            if node.name not in self.facts:
                members = self.system.environment[node.name].items
                self.facts[node.name] = {(member,) for member in members}
            return Literal(PredAtom(node.name, (var,)))
        mapped = isinstance(node, Map)
        predicate = self.predicates.get(node)
        if predicate is None:
            predicate = self.predicates[node] = self._name("map" if mapped else "set")
            if isinstance(node, SetConst):
                self.facts[predicate] = {(member,) for member in node.values}
            elif mapped:
                for way in self._ways(node.child):
                    items, image = self._scalar(node.func, way, self.system.universe)
                    self._emit(predicate, (image, way[1]), items)
            else:
                for items, member in self._ways(node):
                    self._emit(predicate, (member,), items)
        return Literal(PredAtom(predicate, (var, self._var()) if mapped else (var,)))

    def _ways(self, node: Expr) -> List[_Way]:
        """Every way to enumerate the node's candidates; nothing a rule
        body can range over in place gets a predicate of its own."""
        if isinstance(node, Union):
            return self._ways(node.left) + self._ways(node.right)
        if isinstance(node, Diff):
            return self._ways(node.left)
        if isinstance(node, Select):
            joined = self._join(node)
            if joined is not None:
                return [joined]
            return [self._select(node.test, way) for way in self._ways(node.child)]
        var = self._var()
        if isinstance(node, Product):
            other = self._var()
            sides = [self._atom(node.left, var), self._atom(node.right, other)]
            return [self._pair(sides, var, other)]
        return [([self._atom(node, var)], var)]

    def _join(self, node: Select) -> Optional[_Way]:
        """``σ[k₁(x.1) = k₂(x.2) ∧ rest](L × R)``: each side keyed by its
        half of such a conjunct (of all of them, as one tuple), the two
        joined on the key, the pair built per match, ``rest`` tested on it."""
        keys, rest = _split(node.test)
        if not keys or not isinstance(node.child, Product):
            return None
        shared = self._var()
        sides: List[BodyItem] = []
        members = []
        for operand, scalars in zip((node.child.left, node.child.right), zip(*keys)):
            scalar = scalars[0] if len(keys) == 1 else MkTup(scalars)
            if scalar == Arg():  # keyed by the member itself: no helper
                sides.append(self._atom(operand, shared))
                members.append(shared)
                continue
            predicate = self._name("key")
            for way in self._ways(operand):
                items, key = self._scalar(scalar, way)
                self._emit(predicate, (key, way[1]), items)
            members.append(self._var())
            sides.append(Literal(PredAtom(predicate, (shared, members[-1]))))
        way = self._pair(sides, *members)
        return self._select(reduce(AndTest, rest), way) if rest else way


class _System:
    """A program as a normalised system of 0-ary set equations (closed
    IFPs pre-evaluated), plus its candidate universe and the ``MAP``
    indexes membership is walked back through."""

    def __init__(
        self,
        program: AlgebraProgram,
        environment: Mapping[str, Relation],
        registry: Optional[FunctionRegistry],
        limits: EvalLimits,
        universe: Optional[Universe],
        max_ifp_iterations: int,
    ):
        system_program = program.to_constant_system()
        recursive = system_program.recursive_names()
        closed = lambda node: evaluate(  # noqa: E731
            node, environment, registry, system_program, max_ifp_iterations
        )
        self.equations = equations = {
            definition.name: _eliminate_ifp(definition.body, recursive, closed)
            for definition in system_program.definitions
        }
        self.environment = environment
        self.registry = registry
        self.universe = universe
        compiler = _Compiler(self)
        for name, body in equations.items():
            compiler.equation(name, body)
        kernel = self._close(compiler, limits)
        self.cand_sys: Dict[str, FrozenSet[Value]] = {
            name: frozenset(member for (member,) in kernel.rows(name))
            for name in equations
        }
        # image → preimages of every MAP node, out of its binary predicate.
        grouped: Dict[str, Dict[Value, List[Value]]] = {}
        for predicate in set(compiler.maps.values()):
            index = grouped[predicate] = {}
            for image, member in kernel.rows(predicate):
                index.setdefault(image, []).append(member)
        self.map_preimages: Dict[int, Dict[Value, List[Value]]] = {
            node: grouped[predicate] for node, predicate in compiler.maps.items()
        }
        # The membership graph: (name, value) reads what ``holds`` may
        # read for it, its components in dependency order, and per
        # membership the members of its own component that read it.
        reads: Dict[_Node, List[_Node]] = {}
        for name, body in equations.items():
            for value in self.cand_sys[name]:
                reads[name, value] = []
                self._reads(value, body, reads[name, value])
        self.components = strongly_connected_components(reads, reads.__getitem__)
        self.dependents: Dict[_Node, List[_Node]] = {node: [] for node in reads}
        for component in self.components:
            for node in component:
                for read in reads[node]:
                    if read in component:
                        self.dependents[read].append(node)

    # -- candidate universe -------------------------------------------------

    def _close(self, compiler: _Compiler, limits: EvalLimits) -> JoinKernel:
        """The compiled rules' least model, on the kernel's fixpoint
        driver: one naive firing of every rule, then every literal over a
        predicate that changed leads with the new rows alone.  An
        equation's predicate is held to the round's end, the others lead
        within the round (their rules come children first), so a round
        here is a round of the naive iteration on the equations — what
        ``limits`` bound, the total checked as it grows."""
        kernel = JoinKernel(compiler.functions)
        kernel.facts.update(compiler.facts)
        naive, leads = [], []
        for rule in compiler.rules:
            naive.append((kernel.plan(rule), None))
            leads.extend(
                (item.atom.predicate, kernel.plan(rule, index))
                for index, item in enumerate(rule.body)
                if isinstance(item, Literal)
                and item.atom.predicate not in compiler.facts
            )
        equations = self.equations
        total = 0  # rows of the equations' predicates, held ones included

        def admit(plan, produced):
            nonlocal total
            head = plan.head
            if head not in equations:
                return [row for row, _ in produced if kernel.add(head, row)]
            fresh = {row for row, _ in produced} - kernel.rows(head)
            fresh.difference_update(kernel.held.get(head, ()))
            total += len(fresh)
            if total > limits.max_values:
                raise NonTerminating(
                    f"candidate universe exceeded {limits.max_values} values"
                    " — the program may define an infinite set; restrict it"
                    " with a selection or pass a bounding Universe"
                )
            return fresh

        def step(index: int, delta) -> None:
            if delta and index + 1 >= limits.max_rounds:
                raise NonTerminating(
                    f"candidate universe did not converge within "
                    f"{limits.max_rounds} rounds — the program may define an "
                    f"infinite set; restrict it or pass a bounding Universe"
                )

        inner = {rule.head.predicate for rule in compiler.rules} - equations.keys()
        # In slices: a product that overflows stops a slice in.
        kernel.close(naive, leads, admit, step, held=equations, inner=inner, size=256)
        return kernel

    # -- polarity-split membership -----------------------------------------------

    def holds(
        self,
        value: Value,
        node: Expr,
        state: Mapping[str, Set[Value]],
        oracle: Callable[[str, Value], bool],
        positive: bool,
    ) -> bool:
        """Membership of ``value`` in ``node``.

        System-set references read ``state`` at positive polarity; at
        negative polarity ``value ∈ S`` is *false* exactly when the oracle
        licenses the assumption ``value ∉ S`` (and true otherwise, i.e.
        possibly-true memberships block subtraction).
        """
        if isinstance(node, RelVar):
            return value in self.environment[node.name].items
        if isinstance(node, SetConst):
            return value in node.values
        if isinstance(node, Union):
            return self.holds(value, node.left, state, oracle, positive) or self.holds(
                value, node.right, state, oracle, positive
            )
        if isinstance(node, Diff):
            if not self.holds(value, node.left, state, oracle, positive):
                return False
            return not self.holds(value, node.right, state, oracle, not positive)
        if isinstance(node, Product):
            if not isinstance(value, Tup) or len(value) != 2:
                return False
            return self.holds(
                value.component(1), node.left, state, oracle, positive
            ) and self.holds(value.component(2), node.right, state, oracle, positive)
        if isinstance(node, Select):
            if not eval_test(node.test, value, self.registry):
                return False
            return self.holds(value, node.child, state, oracle, positive)
        if isinstance(node, Map):
            for preimage in self.map_preimages.get(id(node), {}).get(value, ()):
                if self.holds(preimage, node.child, state, oracle, positive):
                    return True
            return False
        if isinstance(node, Call):
            if positive:
                return value in state[node.name]
            return not oracle(node.name, value)
        raise TypeError(f"unexpected node: {node!r}")

    def _reads(self, value: Value, node: Expr, reads: List[_Node]) -> None:
        """Append to ``reads`` every candidate membership ``holds(value,
        node, …)`` may read, at either polarity: ``holds``' walk without
        its short cuts, through ``σ`` tests that pass, ``×`` components
        and ``MAP`` preimages.  A value outside a set's candidates is
        certainly false there, and read off no state."""
        if isinstance(node, (Union, Diff)):
            self._reads(value, node.left, reads)
            self._reads(value, node.right, reads)
        elif isinstance(node, Product):
            if isinstance(value, Tup) and len(value) == 2:
                self._reads(value.component(1), node.left, reads)
                self._reads(value.component(2), node.right, reads)
        elif isinstance(node, Select):
            if eval_test(node.test, value, self.registry):
                self._reads(value, node.child, reads)
        elif isinstance(node, Map):
            for preimage in self.map_preimages.get(id(node), {}).get(value, ()):
                self._reads(preimage, node.child, reads)
        elif isinstance(node, Call):
            if value in self.cand_sys[node.name]:
                reads.append((node.name, value))

    # -- solving, one component at a time -------------------------------------------

    def _least(
        self,
        component: FrozenSet[_Node],
        state: Dict[str, Set[Value]],
        oracle: Callable[[str, Value], bool],
    ) -> bool:
        """Add to ``state`` the component's memberships in the least
        fixpoint under ``oracle``, every lower membership already final in
        ``state``; whether any was added.  A membership is tested once,
        and again only when one it reads joins ``state``."""
        equations, dependents = self.equations, self.dependents
        pending = list(component)
        added = False
        while pending:
            node = pending.pop()
            name, value = node
            if value not in state[name] and self.holds(
                value, equations[name], state, oracle, True
            ):
                state[name].add(value)
                pending.extend(dependents[node])
                added = True
        return added

    def least_model(
        self, oracle: Callable[[str, Value], bool]
    ) -> Dict[str, FrozenSet[Value]]:
        """The equations' least fixpoint with every negative reference
        answered by ``oracle``, one component after another."""
        state: Dict[str, Set[Value]] = {name: set() for name in self.equations}
        for component in self.components:
            self._least(component, state, oracle)
        return {name: frozenset(members) for name, members in state.items()}

    def _alternate(
        self,
        component: FrozenSet[_Node],
        true: Dict[str, Set[Value]],
        over: Dict[str, Set[Value]],
    ) -> int:
        """Solve one component into ``true`` (certainly) and ``over``
        (possibly), every lower membership final in both; the rounds it
        took.  A membership that does not read itself is one evaluation
        of each pass.  Otherwise the paper's loop runs on the component:
        ``over`` re-derived with ``v ∉ S`` assumable unless ``v ∈ true``,
        then ``true`` grown with it assumable only if ``v ∉ over``,
        until ``true`` stops growing."""
        possible = lambda name, value: value not in true[name]  # noqa: E731
        certain = lambda name, value: value not in over[name]  # noqa: E731
        if len(component) == 1:
            (node,) = component
            if not self.dependents[node]:
                name, value = node
                body = self.equations[name]
                if self.holds(value, body, over, possible, True):
                    over[name].add(value)
                    if self.holds(value, body, true, certain, True):
                        true[name].add(value)
                return 1
        rounds = 0
        while True:
            rounds += 1
            for name, value in component:
                over[name].discard(value)
            self._least(component, over, possible)
            if not self._least(component, true, certain):
                return rounds

    def valid_model(self) -> ValidEvalResult:
        """The paper's Section 2.2 loop, one component at a time."""
        true: Dict[str, Set[Value]] = {name: set() for name in self.equations}
        over: Dict[str, Set[Value]] = {name: set() for name in self.equations}
        rounds = 0
        for component in self.components:
            rounds = max(rounds, self._alternate(component, true, over))
        return ValidEvalResult(
            true={name: frozenset(members) for name, members in true.items()},
            undefined={name: frozenset(over[name] - true[name]) for name in true},
            candidates=dict(self.cand_sys),
            rounds=rounds,
        )


def valid_evaluate(
    program: AlgebraProgram,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    limits: EvalLimits = EvalLimits(),
    universe: Optional[Universe] = None,
    max_ifp_iterations: int = 10_000,
) -> ValidEvalResult:
    """Compute the valid interpretation of an ``algebra=`` program.

    ``environment`` binds the database relations.  ``universe``, when
    given, bounds value creation by MAP (the window of the bounded-universe
    discipline); without it, programs that generate unboundedly raise
    :class:`~repro.core.evaluator.NonTerminating`.
    """
    return _System(
        program, environment, registry, limits, universe, max_ifp_iterations
    ).valid_model()
