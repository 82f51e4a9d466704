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
   the membership-inversion equations of [5] do.  ``holds`` is compiled,
   not walked: one closure per node and polarity, built once per
   evaluation (the ``σ`` tests and ``MAP`` indexes bound in it), so no
   type dispatch is left on the per-member path.
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
translation route (Corollary 3.6), and this evaluator refuses them.  An
outermost IFP is handed to :func:`_inflate` whole, so an inner one may
read its parameter: Section 3.1's inflationary iteration, each stage one
:func:`evaluate` of the body with the parameter bound to the stages so
far.

The plain ``algebra`` / ``IFP-algebra`` dialects are special cases, not a
second evaluator: their non-recursive definitions are sugar, inlined, and
:func:`evaluate` solves the expression as a one-equation system, whose
valid model is total.  It keeps no cap on that system's candidates — a
non-recursive system always closes — so ``max_iterations`` on each IFP
is its only bound; a recursive call left in the expression raises
:class:`RecursionNotSupported`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from itertools import count
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..digraph import strongly_connected_components
from ..robustness import EvaluationBudget, NonTerminating
from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry, Universe
from ..relations.values import Tup, Value
from ..datalog.ast import BodyItem, Comparison, FuncTerm, Literal, PredAtom, Rule, Var
from ..datalog.kernel import JoinKernel
from ..datalog.semantics.interpretations import Truth
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
    free_rel_vars,
    walk,
)
from .funcs import AndTest, Apply, Arg, Comp, CompareTest, MkTup, ScalarExpr, Test
from .funcs import Predicate, Scalar, compile_scalar, compile_selection
from .programs import AlgebraProgram, ProgramError

__all__ = [
    "EvalLimits", "ValidEvalResult", "valid_evaluate", "IfpThroughRecursion",
    "evaluate", "evaluate_query", "NonTerminating", "RecursionNotSupported",
]


class IfpThroughRecursion(ProgramError):
    """An IFP body reaches a recursive name; use the translation route."""


class RecursionNotSupported(ValueError):
    """A recursive call reached the two-valued :func:`evaluate`."""


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


def _eliminate_ifp(expr: Expr, inflate: Callable[[Ifp], Relation]) -> Expr:
    """Replace each outermost IFP node by its (two-valued, total —
    Theorem 3.1) value, ``inflate`` of the node whole.  Every call left
    in a system of equations is to a recursive name, so an IFP body
    reaching one recurses through the IFP."""
    if not isinstance(expr, Ifp):
        return _rebuild(expr, lambda node: _eliminate_ifp(node, inflate))
    reached = called_names(expr.body)
    if reached:
        raise IfpThroughRecursion(
            f"IFP over {sorted(reached)} recursive names; "
            f"evaluate via algebra_to_datalog instead (Corollary 3.6)"
        )
    return SetConst(inflate(expr).items)


def _inflate(
    node: Ifp,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry],
    max_iterations: int,
    budget: Optional[EvaluationBudget],
) -> Relation:
    """A closed IFP's value, by Section 3.1's inflationary iteration:
    from the empty set, each stage evaluates the body with the parameter
    bound to the result so far, and accumulates."""
    stage = dict(environment)
    current = Relation.empty()
    for _step in range(max_iterations):
        if budget is not None:
            budget.note_iteration(phase="ifp")
        stage[node.param] = current
        body = evaluate(node.body, stage, registry, None, max_iterations, budget)
        accumulated = current.union(body)
        if accumulated == current:
            return current
        if budget is not None:
            budget.charge_facts(len(accumulated) - len(current))
        current = accumulated
    raise NonTerminating(
        f"IFP did not converge within {max_iterations} iterations "
        f"(the fixed point may be an infinite set)",
        progress=budget.progress if budget is not None else None,
    )


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
#: A node's compiled membership at one polarity: ``(value, state,
#: oracle) → holds``.
_Holds = Callable[[Value, Mapping[str, Set[Value]], Callable[[str, Value], bool]], bool]
#: A node's compiled read set: ``(value, reads)`` appends what it reads.
_Reads = Callable[[Value, List[_Node]], None]


def _no_reads(value: Value, reads: List[_Node]) -> None:
    """The read set of a node with no system-set reference below it."""


class _Compiler:
    """Set equations, every ``−`` reduced to its left operand, as positive
    rules over member-encoded predicates (a member is a unary row).

    ``∪`` is two rules, ``Call`` the equation's own predicate, ``×`` a
    ``tuple`` term, ``σ`` a partial identity — unless it equates a key of
    ``x.1`` with a key of ``x.2`` over a ``×``, which is a join of two
    helpers ``key@n(key, member)`` — and ``MAP`` a binary predicate
    ``map@n(image, member)`` fused onto whatever enumerates its child:
    readers ignore the member, :meth:`_System._holds` walks it back.
    Scalars and tests are the system's compiled closures, registered as
    functions ``f@n`` of this one evaluation (one call per application
    on the kernel).  Rules come out children first.
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

    def _apply(self, read: Callable[[Tuple[Value]], Optional[Value]], way: _Way) -> _Way:
        """``way`` through ``out = read((member,))`` (undefined: no row)."""
        body, member = way
        name, out = self._name("f"), self._var()
        self.functions.register(name, 1, lambda value: read((value,)), read)
        return body + [Comparison("=", out, FuncTerm(name, (member,)))], out

    def _scalar(
        self, expr: ScalarExpr, way: _Way, universe: Optional[Universe] = None
    ) -> _Way:
        if universe is None and expr == Arg():
            return way
        scalar = self.system.scalar(expr)
        if universe is None:
            return self._apply(lambda args: scalar(args[0]), way)
        window = universe.items

        def bounded(args: Tuple[Value]) -> Optional[Value]:
            value = scalar(args[0])
            return value if value in window else None

        return self._apply(bounded, way)

    def _select(self, test: Test, way: _Way) -> _Way:
        selected = self.system.test(test)

        def select(args: Tuple[Value]) -> Optional[Value]:
            member = args[0]
            return member if selected(member) else None

        return self._apply(select, way)

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
    """A system of 0-ary set equations (closed IFPs pre-evaluated, each
    under ``max_ifp_iterations`` and ``budget``), plus its candidate
    universe and the ``MAP`` indexes membership is walked back through."""

    def __init__(
        self,
        equations: Mapping[str, Expr],
        environment: Mapping[str, Relation],
        registry: Optional[FunctionRegistry],
        limits: EvalLimits,
        universe: Optional[Universe],
        max_ifp_iterations: int,
        budget: Optional[EvaluationBudget] = None,
    ):
        inflate = lambda node: _inflate(  # noqa: E731
            node, environment, registry, max_ifp_iterations, budget
        )
        self.equations = equations = {
            name: _eliminate_ifp(body, inflate) for name, body in equations.items()
        }
        self.environment = environment
        self.registry = registry
        self.universe = universe
        self._scalars: Dict[ScalarExpr, Scalar] = {}
        self._tests: Dict[Tuple[Test, bool], Predicate] = {}
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
        #: Per equation, its body's membership at positive polarity.
        self.holds: Dict[str, _Holds] = {
            name: self._holds(body, True, False) for name, body in equations.items()
        }
        holds = self.holds
        #: Per equation with no call in it, its members: each reads
        #: nothing and is decided by one evaluation, before any component.
        self.call_free: Dict[str, FrozenSet[Value]] = {
            name: frozenset(v for v in self.cand_sys[name] if holds[name](v, {}, None))
            for name, body in equations.items()
            if not called_names(body)
        }
        # The membership graph of the other equations: (name, value)
        # reads what ``holds`` may read for it, its components in
        # dependency order, and per membership the members of its own
        # component that read it.
        reads: Dict[_Node, List[_Node]] = {}
        for name, body in equations.items():
            if name in self.call_free:
                continue
            collect = self._reads(body, False)
            for value in self.cand_sys[name]:
                collect(value, reads.setdefault((name, value), []))
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
                return kernel.add_all(head, produced)
            fresh = produced.difference(kernel.rows(head), kernel.held.get(head, ()))
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
        kernel.close(
            naive, leads, admit, step, held=equations, inner=inner, size=256, as_set=True
        )
        return kernel

    # -- compiled scalars, tests and membership -------------------------------

    def scalar(self, expr: ScalarExpr) -> Scalar:
        """``expr`` compiled, once per evaluation."""
        compiled = self._scalars.get(expr)
        if compiled is None:
            compiled = self._scalars[expr] = compile_scalar(expr, self.registry)
        return compiled

    def test(self, test: Test, negated: bool = False) -> Predicate:
        """What keeps a member in ``σ[test](E)`` (``negated``: under a
        subtraction's ``¬``, see :func:`~repro.core.funcs.compile_selection`),
        compiled once per evaluation."""
        compiled = self._tests.get((test, negated))
        if compiled is None:
            compiled = compile_selection(test, self.registry, negated)
            self._tests[test, negated] = compiled
        return compiled

    def _holds(self, node: Expr, positive: bool, negated: bool) -> _Holds:
        """Membership of a value in ``node``, compiled at one polarity.

        System-set references read ``state`` at positive polarity; at
        negative polarity ``value ∈ S`` is *false* exactly when the oracle
        licenses the assumption ``value ∉ S`` (and true otherwise, i.e.
        possibly-true memberships block subtraction).  ``negated``: a
        subtraction's ``¬`` reaches the node's ``σ`` tests
        (:meth:`test`); ``×`` and ``MAP`` clear it, as the ∃ they
        translate to stops the translation's NNF.
        """
        if isinstance(node, (RelVar, SetConst)):
            members = (
                self.environment[node.name].items
                if isinstance(node, RelVar)
                else node.values
            )
            return lambda value, state, oracle: value in members
        if isinstance(node, Call):
            name = node.name
            if positive:
                return lambda value, state, oracle: value in state[name]
            return lambda value, state, oracle: not oracle(name, value)
        if isinstance(node, Select):
            test = self.test(node.test, negated)
            child = self._holds(node.child, positive, negated)
            return lambda value, state, oracle: test(value) and child(value, state, oracle)
        if isinstance(node, Map):
            preimages = self.map_preimages.get(id(node), {})
            mapped = self._holds(node.child, positive, False)

            def image(value, state, oracle) -> bool:
                for preimage in preimages.get(value, ()):
                    if mapped(preimage, state, oracle):
                        return True
                return False

            return image
        if not isinstance(node, (Union, Diff, Product)):
            raise TypeError(f"unexpected node: {node!r}")
        local, flip = negated and not isinstance(node, Product), isinstance(node, Diff)
        left = self._holds(node.left, positive, local)
        right = self._holds(node.right, positive != flip, local != flip)
        if isinstance(node, Union):

            def union(value, state, oracle) -> bool:
                return left(value, state, oracle) or right(value, state, oracle)

            return union
        if isinstance(node, Diff):

            def difference(value, state, oracle) -> bool:
                return left(value, state, oracle) and not right(value, state, oracle)

            return difference

        def pair(value, state, oracle) -> bool:
            if type(value) is not Tup or len(value.items) != 2:
                return False
            first, second = value.items
            return left(first, state, oracle) and right(second, state, oracle)

        return pair

    def _reads(self, node: Expr, negated: bool) -> _Reads:
        """What ``_holds(node, …)`` may read, at either polarity, compiled:
        a function appending every candidate membership it reads for a
        value — ``_holds`` without its short cuts, through ``σ`` tests
        that pass, ``×`` components and ``MAP`` preimages.  A value
        outside a set's candidates is certainly false there, and read off
        no state.  A node with no system-set reference below it reads
        nothing (:func:`_no_reads`) and is not walked."""
        if isinstance(node, Call):
            name, candidates = node.name, self.cand_sys[node.name]
            if name in self.call_free:
                return _no_reads

            def call(value: Value, reads: List[_Node]) -> None:
                if value in candidates:
                    reads.append((name, value))

            return call
        if isinstance(node, Select):
            child = self._reads(node.child, negated)
            if child is _no_reads:
                return child
            test = self.test(node.test, negated)

            def select(value: Value, reads: List[_Node]) -> None:
                if test(value):
                    child(value, reads)

            return select
        if isinstance(node, Map):
            child = self._reads(node.child, False)
            if child is _no_reads:
                return child
            preimages = self.map_preimages.get(id(node), {})

            def image(value: Value, reads: List[_Node]) -> None:
                for preimage in preimages.get(value, ()):
                    child(preimage, reads)

            return image
        if not isinstance(node, (Union, Diff, Product)):
            return _no_reads
        local = negated and not isinstance(node, Product)
        left = self._reads(node.left, local)
        right = self._reads(node.right, local != isinstance(node, Diff))
        if left is right is _no_reads:
            return _no_reads
        if isinstance(node, Product):

            def pair(value: Value, reads: List[_Node]) -> None:
                if type(value) is Tup and len(value.items) == 2:
                    first, second = value.items
                    left(first, reads)
                    right(second, reads)

            return pair
        if left is _no_reads or right is _no_reads:
            return right if left is _no_reads else left

        def both(value: Value, reads: List[_Node]) -> None:
            left(value, reads)
            right(value, reads)

        return both

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
        holds, dependents = self.holds, self.dependents
        pending = list(component)
        added = False
        while pending:
            node = pending.pop()
            name, value = node
            if value not in state[name] and holds[name](value, state, oracle):
                state[name].add(value)
                pending.extend(dependents[node])
                added = True
        return added

    def _decided(self) -> Dict[str, Set[Value]]:
        """A derivation state holding what is decided before any
        component: the call-free equations' members."""
        return {name: set(self.call_free.get(name, ())) for name in self.equations}

    def least_model(
        self, oracle: Callable[[str, Value], bool]
    ) -> Dict[str, FrozenSet[Value]]:
        """The equations' least fixpoint with every negative reference
        answered by ``oracle``, one component after another."""
        state = self._decided()
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
                holds = self.holds[name]
                if holds(value, over, possible):
                    over[name].add(value)
                    if holds(value, true, certain):
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
        true, over = self._decided(), self._decided()
        rounds = int(any(self.cand_sys[name] for name in self.call_free))
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
    :class:`~repro.robustness.NonTerminating`.
    """
    equations = {d.name: d.body for d in program.to_constant_system().definitions}
    return _System(
        equations, environment, registry, limits, universe, max_ifp_iterations
    ).valid_model()


#: A non-recursive system's candidates are finite: no cap on their count.
_NONRECURSIVE = EvalLimits(max_values=sys.maxsize)


def evaluate(
    expr: Expr,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    program: Optional[AlgebraProgram] = None,
    max_iterations: int = 10_000,
    budget: Optional[EvaluationBudget] = None,
) -> Relation:
    """Evaluate a non-recursive (``algebra`` / ``IFP-algebra``)
    expression to a relation.

    ``environment`` binds database relations and any enclosing parameters;
    ``program`` (optional) supplies definitions for non-recursive calls,
    inlined first.  The expression is then the one equation of a system
    whose valid model is total.  ``max_iterations`` bounds each IFP's
    stages, and ``budget`` adds wall-clock/step governance to them.
    """
    if program is not None:
        expr = program.inline_nonrecursive(expr)
    for node in walk(expr):
        if isinstance(node, Call):
            if program is None:
                raise RecursionNotSupported(
                    f"call to {node.name!r} without a program in scope"
                )
            raise RecursionNotSupported(
                f"{node.name!r} is recursively defined; recursive programs "
                f"have three-valued semantics — use repro.core.valid_eval"
            )
    unbound = free_rel_vars(expr) - environment.keys()
    if unbound:
        raise KeyError(f"unbound relation variable {min(unbound)!r}")
    system = _System(
        {"@q": expr}, environment, registry, _NONRECURSIVE, None, max_iterations, budget
    )
    return Relation(system.valid_model().true["@q"])


def evaluate_query(
    program: AlgebraProgram,
    result: str,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    max_iterations: int = 10_000,
    budget: Optional[EvaluationBudget] = None,
) -> Relation:
    """Evaluate a named (non-recursive) query constant of a program."""
    definition = program.definition(result)
    if definition.params:
        raise ValueError(f"query constant {result!r} must be 0-ary")
    value = evaluate(
        definition.body, environment, registry, program, max_iterations, budget
    )
    return value.renamed(result)
