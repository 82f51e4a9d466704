"""Spans around each layer's entry points, from outside ``src/``.

``Tracer.install()`` replaces the entry points listed in ``TARGETS``
with recording wrappers at run time — module functions in every
``repro.*`` module that imported them (``from x import f`` binds a
copy), methods on their class — and ``uninstall()`` puts the originals
back.  A span is ``[layer, start_ns, end_ns, parent, count]``; spans
live in memory and go to ``bench/results/trace-<workload>.jsonl`` when
the run ends.  A layer's *self time* is its spans' duration minus the
part their child spans cover, so self times add up to the root spans.

The replay that is traced is single-threaded (``serve_stream`` called
directly); a call from any other thread runs unrecorded.

``count_calls`` is the separate count pass: a ``sys.setprofile`` hook
that buckets python-level calls by ``repro.*`` module.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer, optional ``result -> count``).
#: Private names appear only where a layer has no public seam
#: (``_ensure_result`` is the lazy recompute, ``_build_demand_entry``
#: the cold pattern registration, ``_fsync_now`` the fsync itself).
TARGETS: List[Tuple[str, str, str, Optional[Callable[[object], int]]]] = [
    # eval
    ("repro.datalog.parser", "parse_program", "datalog.parser", None),
    ("repro.lang.parser", "parse_algebra_program", "lang.parser", None),
    ("repro.datalog.grounding", "ground", "datalog.grounding", lambda g: len(g.rules)),
    ("repro.datalog.seminaive", "seminaive_stratified", "datalog.seminaive", None),
    ("repro.datalog.semantics.stratified", "stratified_model", "datalog.semantics.stratified", None),
    ("repro.datalog.semantics.inflationary", "inflationary_model", "datalog.semantics.inflationary", None),
    ("repro.datalog.semantics.wellfounded", "well_founded_model", "datalog.semantics.wellfounded", None),
    ("repro.datalog.semantics.valid", "valid_model", "datalog.semantics.valid", None),
    ("repro.core.algebra_to_datalog", "translate_program", "core.algebra_to_datalog", None),
    ("repro.core.datalog_to_algebra", "datalog_to_algebra", "core.datalog_to_algebra", None),
    ("repro.core.valid_eval", "valid_evaluate", "core.valid_eval", None),
    # front door
    ("repro.service.server", "parse_fact", "service.server.parse", None),
    ("repro.service.server", "parse_bound_pattern", "service.server.parse", None),
    ("repro.service.server", "QueryService.update", "service.server.update", None),
    ("repro.service.server", "QueryService.query_annotated", "service.server.query", None),
    ("repro.service.server", "QueryService.query_pattern", "service.server.query", None),
    ("repro.service.server", "QueryService.register", "service.server.register", None),
    ("repro.service.registry", "prepare_program", "service.registry.prepare", None),
    # write path
    ("repro.service.dbsp.queue", "UpdateQueue.submit", "service.dbsp.queue", None),
    ("repro.service.dbsp.queue", "UpdateQueue.drain", "service.dbsp.queue", None),
    ("repro.service.views", "MaterializedView.__init__", "service.views.init", None),
    ("repro.service.views", "MaterializedView.apply", "service.views.apply", None),
    ("repro.service.views", "MaterializedView.apply_stream", "service.views.apply", None),
    ("repro.service.views", "MaterializedView._ensure_result", "service.views.recompute", None),
    ("repro.service.dbsp.engine", "DBSPEngine.initialize", "service.dbsp.engine", None),
    ("repro.service.dbsp.engine", "DBSPEngine.apply_stream", "service.dbsp.engine", None),
    ("repro.service.annotated", "AnnotatedEngine.initialize", "service.annotated", None),
    ("repro.service.annotated", "AnnotatedEngine.apply_stream", "service.annotated", None),
    ("repro.service.annotated", "AnnotatedEngine.wire_annotations", "service.annotated", None),
    ("repro.service.snapshot", "ModelSnapshot.full", "service.snapshot.publish", None),
    ("repro.service.snapshot", "ModelSnapshot.apply_delta", "service.snapshot.publish", None),
    ("repro.service.snapshot", "ModelSnapshot.compact", "service.snapshot.compact", None),
    # read path
    ("repro.service.snapshot", "ModelSnapshot.rows", "service.snapshot.rows", None),
    ("repro.service.snapshot", "ModelSnapshot.undefined_rows", "service.snapshot.rows", None),
    ("repro.service.snapshot", "ModelSnapshot.annotations_for", "service.snapshot.rows", None),
    ("repro.service.cache", "LRUCache.get", "service.cache", None),
    ("repro.service.cache", "LRUCache.put", "service.cache", None),
    ("repro.service.cache", "LRUCache.invalidate", "service.cache", None),
    ("repro.service.demand", "DemandRegistry.get_or_create", "service.demand.register", None),
    ("repro.service.server", "QueryService._build_demand_entry", "service.demand.register", None),
    ("repro.datalog.magic", "magic_transform", "datalog.magic", None),
    # durability
    ("repro.service.durability.wal", "WriteAheadLog.append", "service.durability.wal.append", None),
    ("repro.service.durability.wal", "encode_record", "service.durability.wal.append", len),
    ("repro.service.durability.wal", "WriteAheadLog._fsync_now", "service.durability.wal.sync", None),
    ("repro.service.durability.checkpoint", "CheckpointStore.save", "service.durability.checkpoint", None),
    ("repro.service.durability.recovery", "recover_service", "service.durability.recovery", None),
    # cluster, client side: encoding and sending this process's frames
    # (``read_frame`` would mostly time the wait for the reply)
    ("repro.service.cluster.framing", "write_frame", "service.cluster.framing", None),
]

ROOT = "service.server.dispatch"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, function, count):
        spans, stack, owner = self.spans, self._stack, self._thread
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return function(*args, **kwargs)
            record = [layer, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[4] = count(result)
            return result

        traced.__wrapped__ = function
        return traced

    def wrap(self, layer: str, function):
        """``function`` recorded as ``layer`` (the replay loop uses this
        for the root span of each request line)."""
        return self._wrap(layer, function, None)

    # -- patching -----------------------------------------------------------

    def install(self, only: Optional[str] = None) -> None:
        """Wrap every target (or just the targets of layer ``only``)."""
        for module_name, path, layer, count in TARGETS:
            if only is not None and layer != only:
                continue
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(
                        self._wrap(layer, original.__func__, count)
                    )
                else:
                    wrapped = self._wrap(layer, original, count)
                self._undo.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(layer, original, count)
            # ``from x import f`` made copies: rebind every one of them.
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if not name.startswith("repro"):
                    continue
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, attribute, original))
                        setattr(loaded, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    # -- reading ------------------------------------------------------------

    def self_times(
        self, first: int = 0, end: Optional[int] = None
    ) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
        """``(self_ns, calls, counts)`` per layer over spans
        ``first <= index < end`` (a span's children always follow it)."""
        end = len(self.spans) if end is None else end
        child_ns = [0] * len(self.spans)
        for _layer, start, stop, parent, _count in self.spans:
            if parent >= 0:
                child_ns[parent] += stop - start
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, int] = defaultdict(int)
        for index in range(first, end):
            layer, start, stop, _parent, count = self.spans[index]
            self_ns[layer] += (stop - start) - child_ns[index]
            calls[layer] += 1
            counts[layer] += count
        return dict(self_ns), dict(calls), dict(counts)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (layer, start, end, parent, count) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "count": count,
                        }
                    )
                    + "\n"
                )


def count_calls(function: Callable[[], object]) -> Dict[str, int]:
    """Python-level calls made while ``function`` runs, per ``repro.*``
    module (``sys.setprofile``; C calls are not counted)."""
    calls: Dict[str, int] = defaultdict(int)

    def hook(frame, event, _arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro"):
                calls[module] += 1

    sys.setprofile(hook)
    try:
        function()
    finally:
        sys.setprofile(None)
    return dict(calls)
