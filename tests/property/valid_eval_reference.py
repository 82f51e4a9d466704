"""The pre-kernel native evaluator, kept as the differential oracle.

Until PR 24 this was ``repro.core.valid_eval._System``: the candidate
universe by naive rounds of a recursive walk that builds ``Tup((a, b))``
for every pair of ``L × R`` before any ``σ`` sees it, a second pass for
the per-node candidates, a third for the ``MAP`` preimage indexes.  It
is slow and obviously right, and it is moved here **verbatim** — the way
PR 16 kept a brute-force grounder in ``test_grounder_reference.py`` — so
``test_valid_eval_reference.py`` can hold the compiled evaluator to it:
same ``true`` / ``undefined`` / ``candidates``, same exceptions.
"""

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set

from repro.core.evaluator import NonTerminating, evaluate
from repro.core.expressions import (
    Call,
    Diff,
    Expr,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
)
from repro.core.funcs import eval_scalar, eval_test
from repro.core.programs import AlgebraProgram
from repro.core.valid_eval import EvalLimits, ValidEvalResult, _eliminate_ifp
from repro.relations.relation import Relation
from repro.relations.universe import FunctionRegistry, Universe
from repro.relations.values import Tup, Value


def _positive_call_names(expr: Expr, positive: bool = True) -> FrozenSet[str]:
    """System names occurring at positive polarity (even subtraction
    nesting) in an expression."""
    if isinstance(expr, Call):
        return frozenset((expr.name,)) if positive else frozenset()
    if isinstance(expr, (RelVar, SetConst)):
        return frozenset()
    if isinstance(expr, (Union, Product, Diff)):
        flipped = positive != isinstance(expr, Diff)
        return _positive_call_names(expr.left, positive) | _positive_call_names(
            expr.right, flipped
        )
    if isinstance(expr, (Select, Map)):
        return _positive_call_names(expr.child, positive)
    raise TypeError(f"not an expression: {expr!r}")


class _System:
    """A normalised system of 0-ary set equations, plus its candidate
    universe and per-node evaluation indexes."""

    def __init__(
        self,
        equations: Dict[str, Expr],
        environment: Mapping[str, Relation],
        registry: Optional[FunctionRegistry],
        limits: EvalLimits,
        universe: Optional[Universe],
    ):
        self.equations = equations
        self.environment = environment
        self.registry = registry
        self.limits = limits
        self.universe = universe
        self.cand_sys: Dict[str, FrozenSet[Value]] = {}
        self.node_cand: Dict[int, FrozenSet[Value]] = {}
        self._node_index: Dict[int, Expr] = {}
        self.map_preimages: Dict[int, Dict[Value, List[Value]]] = {}
        self._compute_candidates()
        self._index_maps()
        # Positive dependencies: S depends on T when T occurs at positive
        # polarity in S's equation (negative occurrences read the static
        # oracle, so they cannot trigger re-derivation within a pass).
        self._positive_deps: Dict[str, FrozenSet[str]] = {
            name: _positive_call_names(body) for name, body in equations.items()
        }

    # -- candidate universe -------------------------------------------------

    def _over_eval(self, node: Expr, cand: Mapping[str, FrozenSet[Value]]) -> FrozenSet[Value]:
        """Over-approximate members, ignoring subtraction."""
        if isinstance(node, RelVar):
            return self.environment[node.name].items
        if isinstance(node, SetConst):
            return node.values
        if isinstance(node, Union):
            return self._over_eval(node.left, cand) | self._over_eval(node.right, cand)
        if isinstance(node, Diff):
            return self._over_eval(node.left, cand)
        if isinstance(node, Product):
            left = self._over_eval(node.left, cand)
            right = self._over_eval(node.right, cand)
            return frozenset(Tup((a, b)) for a in left for b in right)
        if isinstance(node, Select):
            child = self._over_eval(node.child, cand)
            return frozenset(
                v for v in child if eval_test(node.test, v, self.registry)
            )
        if isinstance(node, Map):
            child = self._over_eval(node.child, cand)
            images = set()
            for member in child:
                image = eval_scalar(node.func, member, self.registry)
                if image is not None and (self.universe is None or image in self.universe):
                    images.add(image)
            return frozenset(images)
        if isinstance(node, Call):
            return cand.get(node.name, frozenset())
        raise TypeError(f"unexpected node in normalised system: {node!r}")

    def _compute_candidates(self) -> None:
        cand: Dict[str, FrozenSet[Value]] = {name: frozenset() for name in self.equations}
        for round_index in range(self.limits.max_rounds):
            new_cand = {
                name: self._over_eval(body, cand)
                for name, body in self.equations.items()
            }
            total = sum(len(v) for v in new_cand.values())
            if total > self.limits.max_values:
                raise NonTerminating(
                    f"candidate universe exceeded {self.limits.max_values} values"
                    " — the program may define an infinite set; restrict it with"
                    " a selection or pass a bounding Universe"
                )
            # Candidates grow monotonically: keep the union to be safe
            # against non-monotone tests (there are none, but cheap).
            new_cand = {
                name: cand[name] | members for name, members in new_cand.items()
            }
            if new_cand == cand:
                self.cand_sys = cand
                break
            cand = new_cand
        else:
            raise NonTerminating(
                f"candidate universe did not converge within "
                f"{self.limits.max_rounds} rounds — the program may define an "
                f"infinite set; restrict it or pass a bounding Universe"
            )
        # Final per-node candidate pass.
        for body in self.equations.values():
            self._node_candidates(body)

    def _node_candidates(self, node: Expr) -> FrozenSet[Value]:
        key = id(node)
        if key in self.node_cand:
            return self.node_cand[key]
        if isinstance(node, (Union, Diff, Product)):
            self._node_candidates(node.left)
            self._node_candidates(node.right)
        elif isinstance(node, (Select, Map)):
            self._node_candidates(node.child)
        result = self._over_eval(node, self.cand_sys)
        self.node_cand[key] = result
        self._node_index[key] = node
        return result

    def _index_maps(self) -> None:
        """Precompute image → preimages for every MAP node."""
        for key, node in self._node_index.items():
            if not isinstance(node, Map):
                continue
            preimages: Dict[Value, List[Value]] = {}
            for member in self.node_cand[id(node.child)]:
                image = eval_scalar(node.func, member, self.registry)
                if image is None:
                    continue
                if self.universe is not None and image not in self.universe:
                    continue
                preimages.setdefault(image, []).append(member)
            self.map_preimages[key] = preimages

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

    # -- derivation passes ----------------------------------------------------------

    def derive(self, oracle: Callable[[str, Value], bool]) -> Dict[str, FrozenSet[Value]]:
        """Least fixpoint of simultaneous derivation under a negation
        oracle, with dependency-aware re-evaluation: after the first
        sweep, an equation is revisited only when a set it reads at
        positive polarity gained members."""
        state: Dict[str, Set[Value]] = {name: set() for name in self.equations}
        dirty: Set[str] = set(self.equations)
        while dirty:
            grew: Set[str] = set()
            for name in sorted(dirty):
                body = self.equations[name]
                for value in self.cand_sys[name]:
                    if value in state[name]:
                        continue
                    if self.holds(value, body, state, oracle, True):
                        state[name].add(value)
                        grew.add(name)
            dirty = {
                name
                for name in self.equations
                if self._positive_deps[name] & grew or name in grew
            }
        return {name: frozenset(members) for name, members in state.items()}


def reference_valid_evaluate(
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
    system_program = program.to_constant_system()
    recursive = system_program.recursive_names()

    def closed(node):
        return evaluate(
            node,
            environment,
            registry=registry,
            program=system_program,
            max_iterations=max_ifp_iterations,
        )

    equations: Dict[str, Expr] = {
        definition.name: _eliminate_ifp(definition.body, recursive, closed)
        for definition in system_program.definitions
    }

    system = _System(equations, environment, registry, limits, universe)

    # The paper's Section 2.2 loop, on set equations.
    true_state: Dict[str, FrozenSet[Value]] = {
        name: frozenset() for name in equations
    }
    rounds = 0
    while True:
        rounds += 1
        over = system.derive(
            lambda name, value: value not in true_state[name]
        )
        next_true = system.derive(lambda name, value: value not in over[name])
        if next_true == true_state:
            break
        true_state = next_true

    undefined = {
        name: over[name] - true_state[name] for name in equations
    }
    return ValidEvalResult(
        true=true_state,
        undefined=undefined,
        candidates=dict(system.cand_sys),
        rounds=rounds,
    )
