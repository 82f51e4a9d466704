"""The seven workloads: seeded inputs, op streams and the eval case list.

A serving workload is a set of views plus an endless, seeded stream of
*ops*.  An op is what one user action costs: one or more request lines
sent back to back on the single closed-loop connection (``threeval_rw``
makes a move and asks who wins; ``write_small`` sends one toggle).  Every
stream toggles facts over a fixed pool, so resident rows stay level and
a run of any length measures the same state; the stream generator *is*
the client-side model, and hands a frozen copy of a view's facts to the
oracle on the reads it samples.

Nothing here talks to a server: streams are pure functions of the seed,
which is what lets ``tests/test_determinism.py`` pin their SHA-256.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

TC_RULES = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
WIN_RULES = "win(X) :- move(X, Y), not win(Y)."

#: Share of reads whose reply is checked against the oracle mid-stream.
CHECK_SHARE = 0.05

Fact = Tuple[str, Tuple[str, ...]]


def fact_text(fact: Fact) -> str:
    predicate, args = fact
    return f"{predicate}({', '.join(args)})"


class Check(NamedTuple):
    """What the oracle needs to verify one read: the view, the queried
    predicate, the bound pattern (``None`` = free position; ``None`` for
    the whole pattern = full read) and the view's facts at that moment."""

    view: str
    predicate: str
    pattern: Optional[Tuple[Optional[str], ...]]
    facts: FrozenSet[Fact]


class Step(NamedTuple):
    kind: str  # "write" | "read_point" | "read_full"
    line: str
    check: Optional[Check]


Op = Tuple[Step, ...]


@dataclass(frozen=True)
class View:
    name: str
    semantics: str
    rules: str
    semiring: Optional[str] = None

    def register_line(self, facts: FrozenSet[Fact] = frozenset()) -> str:
        option = f"--semiring={self.semiring} " if self.semiring else ""
        preload = " ".join(f"{fact_text(fact)}." for fact in sorted(facts))
        return (
            f"register {self.name} {self.semantics} {option}{self.rules} {preload}"
        ).rstrip()


class Model:
    """Client-side fact sets, one per view, kept in step with the stream."""

    def __init__(self, views: List[View], seed: int):
        self.facts: Dict[str, set] = {view.name: set() for view in views}
        # Its own generator, so sampling never perturbs the op sequence.
        self._sampler = random.Random(seed * 7919 + 13)

    def toggle(self, view: str, fact: Fact, annotation: str = "") -> Step:
        present = self.facts[view]
        if fact in present:
            present.discard(fact)
            return Step("write", f"-{view} {fact_text(fact)}.", None)
        present.add(fact)
        return Step("write", f"+{view} {fact_text(fact)}{annotation}", None)

    def _sample(self, view, predicate, pattern) -> Optional[Check]:
        if self._sampler.random() >= CHECK_SHARE:
            return None
        return Check(view, predicate, pattern, frozenset(self.facts[view]))

    def read_full(self, view: str, predicate: str) -> Step:
        return Step(
            "read_full",
            f"query {view} {predicate}",
            self._sample(view, predicate, None),
        )

    def read_point(self, view: str, predicate: str, pattern) -> Step:
        rendered = ", ".join("_" if arg is None else arg for arg in pattern)
        return Step(
            "read_point",
            f"query {view} {predicate}({rendered})",
            self._sample(view, predicate, tuple(pattern)),
        )

    def final_checks(self, predicate: str) -> List[Step]:
        """One always-checked full read per view, for the end of a run."""
        return [
            Step(
                "read_full",
                f"query {name} {predicate}",
                Check(name, predicate, None, frozenset(facts)),
            )
            for name, facts in self.facts.items()
        ]


@dataclass
class Serving:
    """A workload served by a ``repro serve`` subprocess."""

    name: str
    why: str
    views: List[View]
    #: Extra ``serve`` flags (``--shards 2`` …).
    flags: Tuple[str, ...]
    #: Ops sent before the timed window (part of ``setup_s``).
    warmup_ops: int
    #: Fixed op count of the traced / counted passes at the default
    #: run length (counts must repeat exactly, so no clock decides it).
    trace_ops: int
    #: ``(views, seed) -> (preload per view, op iterator, model)``
    builder: Callable[
        [List[View], int], Tuple[Dict[str, FrozenSet[Fact]], Iterator[Op], Model]
    ] = field(repr=False, default=None)
    #: Upper bound on oracle-checked mid-stream reads per run (the
    #: oracle recomputes a model from scratch; on big views that is
    #: seconds, not milliseconds).
    max_checks: int = 40
    answer_predicate: str = "tc"

    def build(self, seed: int):
        """The seeded inputs: ``(preload per view, op iterator, model)``."""
        return self.builder(self.views, seed)

    def setup_lines(self, preload: Dict[str, FrozenSet[Fact]]) -> List[str]:
        return [
            view.register_line(preload.get(view.name, frozenset()))
            for view in self.views
        ]


def _cycling(rng: random.Random, items) -> Iterator:
    """Endless passes over ``items``, each in a fresh seeded order.

    Every item comes up once per pass, so a toggled pool swings around
    its preload and a kind mix keeps its exact shares.  Independent
    draws would not do: the toggled state then random-walks for hundreds
    of ops and op cost walks with it, which showed up as a 15% spread of
    ``ops_per_s`` between seeds on an otherwise quiet box.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _chain_pool(chains: int, length: int, prefix: str = "c") -> List[Fact]:
    return [
        ("edge", (f"{prefix}{k}n{i}", f"{prefix}{k}n{i + 1}"))
        for k in range(chains)
        for i in range(length)
    ]


# -- write_small --------------------------------------------------------------


def _build_write_small(views: List[View], seed: int):
    model = Model(views, seed)
    rng = random.Random(seed)
    pool = _chain_pool(16, 3)
    preload = frozenset(pool[::2])
    model.facts["g"] = set(preload)

    def ops() -> Iterator[Op]:
        for fact in _cycling(rng, pool):
            yield (model.toggle("g", fact),)

    return {"g": preload}, ops(), model


WRITE_SMALL = Serving(
    name="write_small",
    why=(
        "toggles over 48 edges keep one bool tc view at ~40 rows: the circuit is "
        "cheap, so parse, queue, lock, publish, WAL and reply are most of each write"
    ),
    views=[View("g", "stratified", TC_RULES)],
    flags=(),
    warmup_ops=1500,
    trace_ops=4000,
    builder=_build_write_small,
)


# -- rw_large -----------------------------------------------------------------

_LARGE_CHAINS, _LARGE_LENGTH, _LARGE_CONSTANTS = 30, 24, 210


def _build_rw_large(views: List[View], seed: int):
    model = Model(views, seed)
    rng = random.Random(seed)
    preload = frozenset(_chain_pool(_LARGE_CHAINS, _LARGE_LENGTH))
    model.facts["g"] = set(preload)
    leaves = [
        ("edge", (f"c{k}n{_LARGE_LENGTH}", f"leaf{k}")) for k in range(_LARGE_CHAINS)
    ]
    # Zipf over 210 constants — every third node of every chain, so the
    # rows the demand entry holds for them are the same for every seed —
    # ranked in a seeded order.  The stream opens by reading each once
    # (part of the warm-up): the entry then holds them all before the
    # window opens and a point read costs the same whenever it is sent;
    # left to arrive by Zipf, the tail kept growing it for the whole run.
    nodes = [
        f"c{k}n{i}" for k in range(_LARGE_CHAINS) for i in range(0, 21, 3)
    ]
    rng.shuffle(nodes)
    weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** 1.1 for rank in range(len(nodes)))
    )
    kinds = _cycling(rng, ["point"] * 15 + ["full"] * 2 + ["write"] * 3)
    toggles = _cycling(rng, leaves)

    def ops() -> Iterator[Op]:
        for node in nodes:
            yield (model.read_point("g", "tc", (node, None)),)
        for kind in kinds:
            if kind == "point":
                [node] = rng.choices(nodes, cum_weights=weights)
                yield (model.read_point("g", "tc", (node, None)),)
            elif kind == "full":
                yield (model.read_full("g", "tc"),)
            else:
                yield (model.toggle("g", next(toggles)),)

    return {"g": preload}, ops(), model


RW_LARGE = Serving(
    name="rw_large",
    why=(
        "one tc view at ~9k rows: writes are circuit scan, full reads are reply "
        "formatting, Zipf point reads are demand hits beside them on one view"
    ),
    views=[View("g", "stratified", TC_RULES)],
    flags=(),
    warmup_ops=_LARGE_CONSTANTS + 40,
    trace_ops=300,
    builder=_build_rw_large,
    max_checks=2,
)


# -- threeval_rw --------------------------------------------------------------

_POSITIONS = 300


def _build_threeval(views: List[View], seed: int):
    model = Model(views, seed)
    rng = random.Random(seed)
    # The game graph has one fixed shape (the fixpoint's cost must not
    # depend on the seed); the seed names the positions and orders play.
    shape = random.Random(0)
    names = [f"p{i}" for i in range(_POSITIONS)]
    rng.shuffle(names)
    open_positions = _POSITIONS - 40

    def move(a: int, b: int) -> Fact:
        return ("move", (names[a], names[b]))

    base = set()
    while len(base) < 360:
        base.add(move(shape.randrange(open_positions), shape.randrange(open_positions)))
    # Twenty 2-cycles with no way out: both ends are drawn positions, so
    # every read carries ``undef`` rows for the oracle to check.
    for a in range(open_positions, _POSITIONS, 2):
        base.add(move(a, a + 1))
        base.add(move(a + 1, a))
    pool: List[Fact] = []
    while len(pool) < 80:
        candidate = move(shape.randrange(_POSITIONS), shape.randrange(_POSITIONS))
        if candidate not in base and candidate not in pool:
            pool.append(candidate)
    preload = frozenset(base)
    for view in views:
        model.facts[view.name] = set(preload)

    moves = {view.name: _cycling(rng, pool) for view in views}

    def ops() -> Iterator[Op]:
        for turn in itertools.count():
            view = views[turn % len(views)].name
            yield (
                model.toggle(view, next(moves[view])),
                model.read_full(view, "win"),
            )

    return {view.name: preload for view in views}, ops(), model


THREEVAL_RW = Serving(
    name="threeval_rw",
    why=(
        "valid and wellfounded win-move views recompute lazily: the write is cheap "
        "and the read after it pays the whole alternating fixpoint (one op = both)"
    ),
    views=[View("wv", "valid", WIN_RULES), View("ww", "wellfounded", WIN_RULES)],
    flags=(),
    warmup_ops=40,
    trace_ops=120,
    builder=_build_threeval,
    answer_predicate="win",
)


# -- annotated_rw -------------------------------------------------------------


def _build_annotated(views: List[View], seed: int):
    model = Model(views, seed)
    rng = random.Random(seed)
    # Short chains: with 8-edge chains the toggled state now and then
    # assembles a long path, op cost triples, and p95 hangs on how often.
    pool = _chain_pool(10, 4)
    preload = frozenset(pool[::2])
    for view in views:
        model.facts[view.name] = set(preload)

    def annotation(view: View) -> str:
        if view.semiring == "naturals":
            return f" @ {rng.randint(1, 3)}"
        if view.semiring == "tropical":
            return f" @ {rng.randint(1, 5)}"
        return ""

    edges = {view.name: _cycling(rng, pool) for view in views}

    def ops() -> Iterator[Op]:
        for turn in itertools.count():
            view = views[turn % len(views)]
            # Drawn even when the toggle turns out to be a delete, so
            # the annotation sequence does not depend on the state.
            suffix = annotation(view)
            yield (
                model.toggle(view.name, next(edges[view.name]), suffix),
                model.read_full(view.name, "tc"),
            )

    return {view.name: preload for view in views}, ops(), model


ANNOTATED_RW = Serving(
    name="annotated_rw",
    why=(
        "naturals, tropical and why tc views go through AnnotatedEngine, not the "
        "circuit: the same view layer at several ms per write on 40-edge pools"
    ),
    views=[
        View("an", "stratified", TC_RULES, "naturals"),
        View("at", "stratified", TC_RULES, "tropical"),
        View("aw", "stratified", TC_RULES, "why"),
    ],
    flags=(),
    warmup_ops=30,
    trace_ops=150,
    builder=_build_annotated,
)


# -- cluster_mix --------------------------------------------------------------


def _build_cluster(views: List[View], seed: int):
    model = Model(views, seed)
    rng = random.Random(seed)
    pool = _chain_pool(16, 3)
    heads = sorted({fact[1][0] for fact in pool})
    preload = frozenset(pool[::2])
    for view in views:
        model.facts[view.name] = set(preload)
    kinds = _cycling(rng, ["write"] * 5 + ["point"] * 4 + ["full"])
    targets = _cycling(rng, [view.name for view in views])
    edges = {view.name: _cycling(rng, pool) for view in views}

    def ops() -> Iterator[Op]:
        for kind, view in zip(kinds, targets):
            if kind == "write":
                yield (model.toggle(view, next(edges[view])),)
            elif kind == "point":
                yield (model.read_point(view, "tc", (rng.choice(heads), None)),)
            else:
                yield (model.read_full(view, "tc"),)

    return {view.name: preload for view in views}, ops(), model


CLUSTER_MIX = Serving(
    name="cluster_mix",
    why=(
        "client, router, worker, queue, circuit, publish, WAL, ack through "
        "--shards 2 on four small views: ops cheap enough that the hop and framing show"
    ),
    # The consistent-hash ring puts m0 and m2 on shard-1, m1 and m6 on
    # shard-0: two views per shard.
    views=[View(name, "stratified", TC_RULES) for name in ("m0", "m1", "m2", "m6")],
    flags=("--shards", "2"),
    warmup_ops=800,
    trace_ops=1000,
    builder=_build_cluster,
)

SERVING = {
    workload.name: workload
    for workload in (WRITE_SMALL, RW_LARGE, THREEVAL_RW, ANNOTATED_RW, CLUSTER_MIX)
}


def stream_sha256(workload: Serving, seed: int, ops: int) -> str:
    """SHA-256 of the first ``ops`` ops' request lines (setup included)."""
    preload, stream, _model = workload.build(seed)
    digest = hashlib.sha256()
    for line in workload.setup_lines(preload):
        digest.update(line.encode("utf-8") + b"\n")
    for op in itertools.islice(stream, ops):
        for step in op:
            digest.update(step.line.encode("utf-8") + b"\n")
    return digest.hexdigest()


# -- recovery_cold ------------------------------------------------------------

RECOVERY_WHY = (
    "SIGKILL after 400 acked +edge records and no checkpoint, then spawn to first "
    "correct reply: restart replays the normal update path, a cost users wait out"
)
RECOVERY_VIEW = View("g", "stratified", TC_RULES)
RECOVERY_RECORDS = 400
#: The smaller log of the scaling ratio (traced run only).
RECOVERY_RECORDS_SMALL = 100
RECOVERY_CHAIN = 12


def recovery_records(seed: int, count: int) -> List[Fact]:
    """``count`` edges forming 12-edge chains, chains in a seeded order."""
    chains = list(range(-(-count // RECOVERY_CHAIN)))
    random.Random(seed).shuffle(chains)
    edges = [
        ("edge", (f"r{k}n{i}", f"r{k}n{i + 1}"))
        for k in chains
        for i in range(RECOVERY_CHAIN)
    ]
    return edges[:count]


# -- eval_paper ---------------------------------------------------------------

EVAL_WHY = (
    "the paper's own job with the service bypassed: corpus programs under all four "
    "semantics plus both translations, agreement (Thm 6.2, Prop 5.x) as the check"
)


class EvalCase(NamedTuple):
    """One evaluation: ``run()`` returns an answer signature; cases that
    share a ``group`` must return equal signatures (the paper's
    agreement claims), and a ``None`` group means ``run`` checks itself
    and returns True."""

    name: str
    group: Optional[str]
    run: Callable[[], object]


def eval_cases(seed: int) -> List[EvalCase]:
    """The fixed case list over seed-relabelled graphs, in seeded order.

    The graph *shapes* are fixed (cost must not depend on the seed);
    the seed picks node labels, edge order and case order.
    """
    from repro.core.algebra_to_datalog import translation_registry
    from repro.core.equivalence import check_algebra_roundtrip, check_datalog_roundtrip
    from repro.corpus import (
        ALGEBRA_CORPUS,
        DEDUCTIVE_CORPUS,
        binary_tree,
        chain,
        cycle,
        edges_to_database,
        edges_to_relation,
        grid,
        node,
        nodes_of,
    )
    from repro.datalog import run

    rng = random.Random(seed)
    registry = translation_registry()

    def relabel(edges):
        nodes = nodes_of(edges)
        labels = list(range(len(nodes)))
        rng.shuffle(labels)
        rename = {old: node(label) for old, label in zip(nodes, labels)}
        renamed = [(rename[a], rename[b]) for a, b in edges]
        rng.shuffle(renamed)
        return renamed

    graphs = {
        "chain-24": relabel(chain(24)),
        "chain-32": relabel(chain(32)),
        "chain-96": relabel(chain(96)),
        "cycle-25": relabel(cycle(25)),
        "cycle-97": relabel(cycle(97)),
        "grid-5": relabel(grid(5, 5)),
        "grid-5b": relabel(grid(5, 5)),
        "grid-7": relabel(grid(7, 7)),
        "tree-4": relabel(binary_tree(4)),
        "chain-8": relabel(chain(8)),
    }
    cases: List[EvalCase] = []

    def deductive(program: str, graph: str, semantics: Tuple[str, ...]) -> None:
        case = DEDUCTIVE_CORPUS[program]
        database = edges_to_database(graphs[graph])

        def evaluate(chosen: str):
            outcome = run(case.program, database, semantics=chosen, registry=registry)
            return tuple(
                (outcome.true_rows(p), outcome.undefined_rows(p))
                for p in case.predicates
            )

        for chosen in semantics:
            cases.append(
                EvalCase(
                    f"{program}/{graph}/{chosen}",
                    f"{program}/{graph}",
                    lambda chosen=chosen: evaluate(chosen),
                )
            )

    every = ("stratified", "inflationary", "wellfounded", "valid")
    total = ("stratified", "wellfounded", "valid")
    threeval = ("wellfounded", "valid")
    # Positive programs: all four semantics coincide.
    # (grid-5 twice, under two labellings: these sixteen cases are the
    # middle of the cost range, where the median op falls.)
    for graph in ("chain-32", "cycle-25", "grid-5", "grid-5b", "tree-4"):
        deductive("transitive-closure", graph, every)
    for graph in ("tree-4", "grid-5", "grid-5b"):
        deductive("same-generation", graph, every)
    # Stratified negation: the three model-theoretic semantics coincide.
    # (Six graphs' worth of the heaviest program: p95 lands inside them.)
    for graph in ("chain-24", "grid-5", "cycle-25", "tree-4"):
        deductive("unreachable", graph, total)
    # Non-stratified: valid (Section 2.2) agrees with the alternating fixpoint.
    for graph in ("chain-96", "cycle-97", "grid-7"):
        deductive("win-move", graph, threeval)
    for graph in ("chain-32", "cycle-25"):
        deductive("double-negation", graph, threeval)

    def algebra(program: str, graph: str) -> None:
        case = ALGEBRA_CORPUS[program]
        environment = {"MOVE": edges_to_relation(graphs[graph], "MOVE")}
        cases.append(
            EvalCase(
                f"algebra/{program}/{graph}",
                None,
                lambda: check_algebra_roundtrip(
                    case.program, environment, registry=registry
                ).matches,
            )
        )

    for program, graph in (
        ("win-game", "chain-24"),
        ("win-game", "cycle-25"),
        ("win-game", "grid-5"),
        ("mutual-negation", "grid-5"),
        ("mutual-negation", "cycle-25"),
        ("positions", "grid-7"),
        ("transitive-closure", "chain-8"),
    ):
        algebra(program, graph)

    def roundtrip(program: str, graph: str) -> None:
        case = DEDUCTIVE_CORPUS[program]
        database = edges_to_database(graphs[graph])
        cases.append(
            EvalCase(
                f"roundtrip/{program}/{graph}",
                None,
                lambda: check_datalog_roundtrip(
                    case.program, database, registry=registry
                ).matches,
            )
        )

    for program, graph in (
        ("win-move", "chain-24"),
        ("win-move", "cycle-25"),
        ("double-negation", "cycle-25"),
        ("sources-sinks", "cycle-25"),
        ("transitive-closure", "chain-8"),
    ):
        roundtrip(program, graph)

    rng.shuffle(cases)
    return cases


WORKLOADS: Dict[str, str] = {
    "eval_paper": EVAL_WHY,
    **{name: workload.why for name, workload in SERVING.items()},
    "recovery_cold": RECOVERY_WHY,
}
#: Fixed order: the one the issue lists them in.
ORDER = tuple(WORKLOADS)
