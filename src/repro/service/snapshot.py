"""Immutable, versioned model snapshots — the service's primary read path.

A :class:`ModelSnapshot` captures one complete, consistent model of a
materialized view: the certainly-true rows *and* the undefined rows
(the three-valued distinction Theorems 4.2/6.2 of the paper turn on —
a degraded view keeps serving both statuses, not just the true rows),
plus a per-view **generation** number, a staleness flag, and a lazy
content fingerprint.

Snapshots are the RCU publication unit.  Writers (the update and
rebuild paths of :class:`~repro.service.views.MaterializedView`)
construct a fully immutable snapshot and publish it with a single
atomic reference swap while holding the per-view lock; readers pick up
whatever snapshot is currently published — no lock, no copy — and are
guaranteed a complete model at some recent version, never a mid-batch
state.

Maintenance is **delta-driven**, not copy-driven: ``apply_delta``
builds the successor snapshot in O(|delta|) by stacking the batch's
net plus/minus sets on per-predicate copy-on-write cells.  Unchanged
predicates share their cells with the parent snapshot outright;
changed predicates get a thin delta cell whose full row set is
materialized lazily (and memoized) on first read.  A depth cap bounds
the delta chains, so a long unread update burst compacts periodically
instead of accumulating unboundedly.

**Compaction** (:meth:`ModelSnapshot.compact`) flattens delta chains
proactively: it forces the lazy materialization of every cell deeper
than a cap, so the first read after a write-heavy/read-light burst
does not pay the chain walk.  Because a cell memoizes its row set with
one atomic state swap, compaction changes no visible value —
``rows()`` and ``fingerprint`` are identical before and after — and is
safe to run concurrently with lock-free readers (a racing reader
either recomputes the same frozenset or picks up the memoized one).
The :class:`~repro.service.views.MaterializedView` publish path runs
it every :data:`~repro.service.views.COMPACT_INTERVAL`-th publish.

**Read memos.**  What a read derives from a predicate's rows one row at
a time — the sorted ``row`` wire lines of a full read
(:meth:`ModelSnapshot.lines`), the hash index a bound pattern probes
(:meth:`ModelSnapshot.probe`) — is a linear map, so its incremental
version is itself applied to the delta.  A cell builds either lazily,
on the first read that asks, and a delta cell that materializes over a
parent holding one derives its own from ``plus``/``minus`` alone.
Publishing formats and indexes nothing; a read costs its answer plus
the delta not yet read.

**Annotations.**  An annotated view's snapshot carries, per predicate,
its K-relation in wire text as a set of ``(row, text)`` pairs — in a
cell of the same kind, so a write stacks the pairs whose annotation
changed as one more delta and the sorted ``explain`` lines are a memo
carried and spliced exactly like the ``row`` lines.  Boolean snapshots
carry no such table.
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..datalog.facts import format_fact
from ..relations.values import Value

__all__ = ["ModelSnapshot"]

Row = Tuple[Value, ...]
#: A bound pattern: one element per argument position, ``None`` = free.
Pattern = Tuple[Optional[Value], ...]

_EMPTY: FrozenSet[Row] = frozenset()

#: Delta cells deeper than this are compacted (materialized eagerly) at
#: publish time, bounding both read-side recursion and chain memory.
MAX_DELTA_DEPTH = 16


def _bucketed(
    rows: Iterable[Row], arity: int, key_of
) -> Dict[object, FrozenSet[Row]]:
    """``rows`` of width ``arity`` grouped by ``key_of(row)``."""
    buckets: Dict[object, List[Row]] = {}
    for row in rows:
        if len(row) == arity:
            buckets.setdefault(key_of(row), []).append(row)
    return {key: frozenset(bucket) for key, bucket in buckets.items()}


class _Cell:
    """One predicate's rows: a materialized frozenset, or a delta.

    The single ``_state`` tuple is swapped atomically when a lazy delta
    cell materializes, so racing readers either recompute the same
    frozenset (benign duplicate work) or pick up the memoized one —
    never a torn intermediate.

    A materialized cell also memoizes, lazily, what reads derive from
    its rows row by row: the sorted ``row`` wire lines (:meth:`lines`)
    and one hash index per probed pattern shape (:meth:`probe`).
    Both are linear in the rows, so when a delta cell materializes and
    its parent holds a memo it derives its own from the parent's by
    applying the map to ``plus``/``minus`` alone — before the state
    swap drops the parent.  Nothing is derived that no read asked for:
    a cell whose ancestors were never read in full holds no lines.
    """

    __slots__ = ("_predicate", "_state", "_lines", "_indexes")

    def __init__(self, predicate: str, state: tuple):
        self._predicate = predicate
        self._state = state
        self._lines: Optional[List[str]] = None
        # (arity, bound positions) -> key -> rows; in-place inserts and
        # whole-dict replacement are both atomic under the GIL, and a
        # racing loser only costs a rebuild.
        self._indexes: Dict[tuple, Dict[object, FrozenSet[Row]]] = {}

    @classmethod
    def frozen(cls, predicate: str, rows: Iterable[Row]) -> "_Cell":
        return cls(predicate, ("frozen", frozenset(rows)))

    @classmethod
    def delta(
        cls,
        parent: "_Cell",
        plus: FrozenSet[Row],
        minus: FrozenSet[Row],
        depth: int,
    ) -> "_Cell":
        # The trailing dict memoizes the delta's own buckets per probed
        # shape; it lives in the state tuple so it goes with the state.
        return cls(parent._predicate, ("delta", parent, plus, minus, depth, {}))

    @property
    def depth(self) -> int:
        state = self._state
        return 0 if state[0] == "frozen" else state[4]

    def rows(self) -> FrozenSet[Row]:
        if self._state[0] != "frozen":
            self._settle()
        return self._state[1]

    def _settle(self) -> int:
        """Materialize this cell from its nearest materialized ancestor
        in one step, carrying that ancestor's memos forward by the
        chain's net change; returns the rows formatted.

        The cells in between stay deltas: the chain is folded into one
        net delta (set operations over the deltas alone), so flattening
        a chain of depth d builds one row set and rebuilds each bucket
        the net change touches once — a row inserted and deleted again
        inside the chain touches nothing.
        """
        state = self._state
        if state[0] == "frozen":
            return 0
        chain = [state]
        base = state[1]
        while True:
            # One read per cell: a racing reader may freeze it meanwhile.
            ancestor = base._state
            if ancestor[0] == "frozen":
                break
            chain.append(ancestor)
            base = ancestor[1]
        _tag, _parent, plus, minus, _depth, _buckets = chain.pop()
        for _tag, _parent, newer_plus, newer_minus, _depth, _buckets in reversed(chain):
            plus = (plus - newer_minus) | newer_plus
            minus = minus | newer_minus
        before = ancestor[1]
        added = plus - before
        removed = (minus - plus) & before
        if not added and not removed:
            # The memos are never mutated, so an unchanged relation
            # shares them.
            self._lines, self._indexes = base._lines, base._indexes
            self._state = ("frozen", before)
            return 0
        rows = (before - removed) | added
        formatted = 0
        lines = base._lines
        if lines is not None:
            self._lines = self._spliced(lines, removed, added)
            formatted += len(removed) + len(added)
        if base._indexes:
            self._indexes = {
                shape: self._reindexed(
                    index,
                    self._delta_buckets(shape, added, removed, {}),
                )
                for shape, index in list(base._indexes.items())
            }
        self._state = ("frozen", rows)
        return formatted

    @staticmethod
    def _delta_buckets(shape, plus, minus, buckets):
        """``plus`` and ``minus`` bucketed for ``shape`` (memoized)."""
        pair = buckets.get(shape)
        if pair is None:
            arity, positions = shape
            key_of = itemgetter(*positions)
            pair = buckets[shape] = (
                _bucketed(plus, arity, key_of),
                _bucketed(minus, arity, key_of),
            )
        return pair

    def _line(self, row: Row) -> str:
        return f"row {format_fact(self._predicate, row)}"

    def _spliced(
        self, lines: List[str], removed: FrozenSet[Row], added: FrozenSet[Row]
    ) -> List[str]:
        """``lines`` (sorted) without the lines of ``removed`` and with
        those of ``added``: slices between bisected cut points, then one
        merge of two sorted runs — O(N) pointer moves, |delta| formats."""
        out: List[str] = []
        start = 0
        for line in sorted(map(self._line, removed)):
            cut = bisect_left(lines, line, start)
            out += lines[start:cut]
            start = cut + 1
        out += lines[start:]
        if added:
            out += sorted(map(self._line, added))
            out.sort()
        return out

    @staticmethod
    def _reindexed(index, delta_buckets):
        """A parent's index with only the delta's buckets rebuilt."""
        plus, minus = delta_buckets
        index = dict(index)
        for key in minus.keys() | plus.keys():
            bucket = index.get(key, _EMPTY) - minus.get(key, _EMPTY)
            bucket |= plus.get(key, _EMPTY)
            if bucket:
                index[key] = bucket
            else:
                index.pop(key, None)
        return index

    def lines(self) -> Tuple[List[str], int]:
        """``(sorted row wire lines, rows formatted to produce them)``.

        The list is the memo itself: callers must not mutate it.
        """
        formatted = self._settle()
        lines = self._lines
        if lines is None:
            rows = self._state[1]
            lines = self._lines = sorted(map(self._line, rows))
            formatted += len(rows)
        return lines, formatted

    def probe(self, shape: tuple, key_of, key) -> Tuple[FrozenSet[Row], int]:
        """``(rows whose bound positions hold key, rows scanned)`` for a
        pattern of ``shape`` = (arity, bound positions).

        A materialized cell answers from its hash index for the shape
        (built on first use); an unmaterialized delta cell asks its
        parent and applies the matching buckets of its own delta (one
        pass over the delta on first use) — no O(N) step.
        """
        state = self._state
        if state[0] == "frozen":
            scanned = 0
            index = self._indexes.get(shape)
            if index is None:
                index = _bucketed(state[1], shape[0], key_of)
                self._indexes[shape] = index
                scanned = len(state[1])
            bucket = index.get(key, _EMPTY)
            return bucket, scanned + len(bucket)
        _tag, parent, plus, minus, _depth, buckets = state
        rows, scanned = parent.probe(shape, key_of, key)
        if shape not in buckets:
            scanned += len(plus) + len(minus)
        new, gone = self._delta_buckets(shape, plus, minus, buckets)
        new, gone = new.get(key, _EMPTY), gone.get(key, _EMPTY)
        if gone or new:
            rows = (rows - gone) | new
        return rows, scanned + len(gone) + len(new)


class _Undefined(_Cell):
    """One predicate's undefined rows: a cell whose lines are the
    ``undef`` lines of a full read."""

    __slots__ = ()

    def _line(self, row: Row) -> str:
        return f"undef {format_fact(self._predicate, row)}"


class _Notes(_Cell):
    """One predicate's annotations: a cell of ``(row, wire text)``
    pairs whose lines are the ``explain`` lines of a full read."""

    __slots__ = ("_table",)

    def __init__(self, predicate: str, state: tuple):
        super().__init__(predicate, state)
        self._table: Optional[Dict[Row, str]] = None

    def _line(self, pair: Tuple[Row, str]) -> str:
        return f"explain {format_fact(self._predicate, pair[0])} @ {pair[1]}"

    def table(self) -> Dict[Row, str]:
        """row → text, built once per cell (its pairs never change).

        The dict is the memo itself: callers must not mutate it.
        """
        if self._table is None:
            self._table = dict(self.rows())
        return self._table


class ModelSnapshot:
    """An immutable, versioned three-valued model of one view.

    ``generation`` is monotone per view and bumps on every publish;
    ``stale`` marks degraded (last-consistent-model) service;
    ``published_at`` feeds the snapshot-age gauge.  ``fingerprint`` is
    a content hash over both truth statuses, computed lazily so the
    per-batch publish cost stays proportional to the delta.
    """

    __slots__ = (
        "generation",
        "stale",
        "published_at",
        "_true",
        "_undefined",
        "_annotations",
        "_fingerprint",
    )

    def __init__(
        self,
        true_cells: Dict[str, _Cell],
        undefined: Dict[str, _Cell],
        generation: int,
        stale: bool,
        annotations: Optional[Dict[str, _Notes]] = None,
    ):
        self._true = true_cells
        self._undefined = undefined
        # Per-row semiring annotations in wire text, one cell of
        # (row, text) pairs per predicate.  None for boolean views (the
        # fast path carries nothing extra).
        self._annotations = annotations
        self.generation = generation
        self.stale = stale
        self.published_at = time.monotonic()
        self._fingerprint: Optional[str] = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def full(
        cls,
        true_rows: Mapping[str, Iterable[Row]],
        undefined_rows: Optional[Mapping[str, Iterable[Row]]] = None,
        generation: int = 1,
        stale: bool = False,
        annotations: Optional[Mapping[str, Mapping[Row, str]]] = None,
    ) -> "ModelSnapshot":
        """Snapshot a complete model (initialization / rebuild)."""
        cells = {
            predicate: _Cell.frozen(predicate, rows)
            for predicate, rows in true_rows.items()
        }
        undefined = {
            predicate: _Undefined.frozen(predicate, rows)
            for predicate, rows in (undefined_rows or {}).items()
            if rows
        }
        notes = (
            {
                predicate: _Notes.frozen(predicate, table.items())
                for predicate, table in annotations.items()
            }
            if annotations is not None
            else None
        )
        return cls(cells, undefined, generation, stale, notes)

    def apply_delta(
        self,
        plus: Mapping[str, Iterable[Row]],
        minus: Mapping[str, Iterable[Row]],
        generation: int,
        undefined_plus: Optional[Mapping[str, Iterable[Row]]] = None,
        undefined_minus: Optional[Mapping[str, Iterable[Row]]] = None,
        annotated_plus: Optional[Mapping[str, Iterable[Tuple[Row, str]]]] = None,
        annotated_minus: Optional[Mapping[str, Iterable[Tuple[Row, str]]]] = None,
    ) -> "ModelSnapshot":
        """The successor snapshot under a net fact delta, in O(|delta|).

        Unchanged predicates share cells with this snapshot; changed
        ones stack a copy-on-write delta cell (compacted once the chain
        hits :data:`MAX_DELTA_DEPTH`).  ``plus``/``minus`` must be the
        *net* per-predicate deltas — exactly what every view engine's
        ``apply_stream`` reports.  ``undefined_plus``/``undefined_minus``
        are the same for the undefined rows (the alternating chain and
        the rebuild engine report them); a
        total model passes none and shares the undefined table by
        reference.  ``annotated_plus``/``annotated_minus`` are the
        ``(row, wire text)`` pairs an annotated engine's batch added to
        and took from the annotation table (a re-annotated row is one of
        each); every other snapshot shares that table too.
        """
        undefined = self._undefined
        if undefined_plus or undefined_minus:
            undefined = self._stacked(
                undefined, undefined_plus or {}, undefined_minus or {}, _Undefined
            )
        annotations = self._annotations
        if annotated_plus or annotated_minus:
            annotations = self._stacked(
                annotations or {}, annotated_plus or {}, annotated_minus or {}, _Notes
            )
        return ModelSnapshot(
            self._stacked(self._true, plus, minus),
            undefined,
            generation,
            False,
            annotations,
        )

    @staticmethod
    def _stacked(
        table: Dict[str, _Cell],
        plus: Mapping[str, Iterable[Row]],
        minus: Mapping[str, Iterable[Row]],
        kind=_Cell,
    ) -> Dict[str, _Cell]:
        """``table`` with a delta cell stacked on each changed predicate."""
        cells = dict(table)
        for predicate in set(plus) | set(minus):
            plus_rows = frozenset(plus.get(predicate, ()))
            minus_rows = frozenset(minus.get(predicate, ()))
            if not plus_rows and not minus_rows:
                continue
            parent = cells.get(predicate) or kind.frozen(predicate, ())
            depth = parent.depth + 1
            cell = kind.delta(parent, plus_rows, minus_rows, depth)
            if depth > MAX_DELTA_DEPTH:
                cell.rows()
            cells[predicate] = cell
        return cells

    # -- compaction -----------------------------------------------------------

    def _cells(self) -> Iterable[_Cell]:
        """Every cell: both truth statuses and the annotations."""
        return chain(
            self._true.values(),
            self._undefined.values(),
            (self._annotations or {}).values(),
        )

    def max_chain_depth(self) -> int:
        """The deepest delta chain any predicate currently carries.

        0 means every cell is materialized (reads are one dict lookup).
        Already-read delta cells report 0 too: materialization collapses
        the whole chain in place.
        """
        return max((cell.depth for cell in self._cells()), default=0)

    def compact(self, depth_cap: int = 0) -> Tuple[int, int]:
        """Flatten every delta chain deeper than ``depth_cap``.

        Forces the lazy materialization of the affected cells, exactly
        as a reader would — so the snapshot's visible contents
        (``rows()``, ``fingerprint``) are unchanged, and racing readers
        are safe.  Returns ``(cells_compacted, rows_materialized)`` for
        the ``compactions`` / ``compaction_rows`` counters.
        """
        cells = rows_total = 0
        for cell in self._cells():
            if cell.depth > depth_cap:
                rows_total += len(cell.rows())
                cells += 1
        return cells, rows_total

    def as_stale(self, generation: int) -> "ModelSnapshot":
        """Copy-on-degrade: the same model, flagged stale.

        Cells are shared, so degrading costs O(#predicates) — the
        robustness contract (serve the last consistent model) without
        ever having paid a precautionary full copy on the happy path.
        """
        return ModelSnapshot(
            self._true, self._undefined, generation, True, self._annotations
        )

    # -- reads ----------------------------------------------------------------

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Certainly-true rows of one predicate."""
        cell = self._true.get(predicate)
        return cell.rows() if cell is not None else _EMPTY

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Undefined-status rows of one predicate."""
        cell = self._undefined.get(predicate)
        return cell.rows() if cell is not None else _EMPTY

    def lines(self, predicate: str) -> Tuple[List[str], int]:
        """The true rows as sorted ``row <atom>`` wire lines, and how
        many rows were formatted to produce them.

        Memoized on the predicate's cell and carried down delta chains,
        so a full read after a write formats the delta, not the
        relation.  The list is the shared memo: do not mutate it.
        """
        cell = self._true.get(predicate)
        return cell.lines() if cell is not None else ([], 0)

    def undefined_lines(self, predicate: str) -> Tuple[List[str], int]:
        """The undefined rows as sorted ``undef <atom>`` wire lines, and
        how many rows were formatted to produce them — memoized and
        carried like :meth:`lines`."""
        cell = self._undefined.get(predicate)
        return cell.lines() if cell is not None else ([], 0)

    def probe(
        self, predicate: str, args: Pattern
    ) -> Tuple[FrozenSet[Row], FrozenSet[Row], int]:
        """``(true rows, undefined rows, rows scanned)`` matching a
        bound pattern — ``args`` holds a value per bound position and
        ``None`` per free one, at least one of them bound.

        Answered from a hash index per pattern shape, which each cell
        builds on its first probe and carries down delta chains.
        """
        positions = tuple(i for i, v in enumerate(args) if v is not None)
        shape = (len(args), positions)
        key_of = itemgetter(*positions)
        key = key_of(args)
        scanned = 0
        answers = []
        for table in (self._true, self._undefined):
            cell = table.get(predicate)
            rows = _EMPTY
            if cell is not None:
                rows, touched = cell.probe(shape, key_of, key)
                scanned += touched
            answers.append(rows)
        return answers[0], answers[1], scanned

    def annotations_for(self, predicate: str) -> Optional[Mapping[Row, str]]:
        """Wire-text semiring annotations of one predicate's true rows,
        or None when this snapshot carries none (boolean views)."""
        if self._annotations is None:
            return None
        cell = self._annotations.get(predicate)
        return cell.table() if cell is not None else {}

    def explain_lines(self, predicate: str) -> Tuple[List[str], int]:
        """The annotations as sorted ``explain <atom> @ <text>`` wire
        lines (none on a boolean snapshot), and how many were formatted
        to produce them — memoized and carried like :meth:`lines`."""
        cell = (self._annotations or {}).get(predicate)
        return cell.lines() if cell is not None else ([], 0)

    def predicates(self) -> FrozenSet[str]:
        """Every predicate this snapshot holds rows (of any status) for."""
        return frozenset(self._true) | frozenset(self._undefined)

    def true_rows(self) -> Dict[str, FrozenSet[Row]]:
        """The whole true table, materialized (test oracles, exports)."""
        return {
            predicate: cell.rows() for predicate, cell in self._true.items()
        }

    @property
    def fingerprint(self) -> str:
        """Content hash over both truth statuses (lazy, memoized).

        Two snapshots with identical models share a fingerprint
        regardless of the delta path that built them: a predicate
        present with no rows digests like an absent one.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            for section, table in (
                ("true", self._true),
                ("undefined", self._undefined),
            ):
                hasher.update(section.encode("utf-8"))
                hasher.update(b"\x03")
                for predicate in sorted(table):
                    rows = sorted(
                        table[predicate].rows(),
                        key=lambda r: tuple(map(repr, r)),
                    )
                    if not rows:
                        continue
                    hasher.update(predicate.encode("utf-8"))
                    hasher.update(b"\x00")
                    for row in rows:
                        hasher.update(repr(row).encode("utf-8"))
                        hasher.update(b"\x01")
                    hasher.update(b"\x02")
            if self._annotations is not None:
                # Annotated snapshots hash their annotation table too
                # (wire text, so deterministic); boolean snapshots skip
                # the section and keep the pre-annotation digests.
                hasher.update(b"annotations\x03")
                for predicate in sorted(self._annotations):
                    pairs = sorted(
                        self._annotations[predicate].rows(),
                        key=lambda pair: tuple(map(repr, pair[0])),
                    )
                    if not pairs:
                        continue
                    hasher.update(predicate.encode("utf-8"))
                    hasher.update(b"\x00")
                    for row, text in pairs:
                        hasher.update(repr(row).encode("utf-8"))
                        hasher.update(b"\x04")
                        hasher.update(text.encode("utf-8"))
                        hasher.update(b"\x01")
                    hasher.update(b"\x02")
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"<ModelSnapshot gen={self.generation} "
            f"predicates={len(self._true)} stale={self.stale}>"
        )
