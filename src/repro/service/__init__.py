"""The serving layer: registered programs, resident views, updates.

Everything below this package exists so a query is *not* a full
parse–ground–solve round trip: programs are compiled once into prepared
plans (:mod:`registry`), their models kept resident by one engine per
view (:mod:`views`: the delta-stream circuits of :mod:`dbsp`, the
annotated engine of :mod:`annotated`, or a per-burst rebuild) and
served from published snapshots (:mod:`snapshot`), repeated answers
served from an LRU cache (:mod:`cache`), and the whole thing instrumented
(:mod:`metrics`) and scriptable over a line protocol (:mod:`server`,
``repro serve``).  See ``docs/SERVICE.md`` for the architecture.
"""

from .cache import LRUCache
from .dbsp import DBSPEngine, UpdateQueue, ZSet
from .dbsp.engine import IncrementalMaintenanceError
from .locks import AtomicReference, InstrumentedLock
from .metrics import Histogram, ServiceMetrics, ViewMetrics
from .prometheus import PrometheusExporter, render_prometheus
from .snapshot import ModelSnapshot
from .registry import (
    Component,
    PreparedProgram,
    prepare_program,
    split_program_and_facts,
)
from .annotated import AnnotatedEngine
from .demand import DemandEntry, DemandRegistry
from .server import (
    QueryService,
    parse_annotated_fact,
    parse_bound_pattern,
    parse_fact,
    serve_stream,
    serve_unix_socket,
)
from .views import MaterializedView

__all__ = [
    "AnnotatedEngine",
    "AtomicReference",
    "Component",
    "DBSPEngine",
    "DemandEntry",
    "DemandRegistry",
    "Histogram",
    "IncrementalMaintenanceError",
    "InstrumentedLock",
    "LRUCache",
    "MaterializedView",
    "ModelSnapshot",
    "PreparedProgram",
    "PrometheusExporter",
    "QueryService",
    "ServiceMetrics",
    "UpdateQueue",
    "ViewMetrics",
    "ZSet",
    "parse_annotated_fact",
    "parse_bound_pattern",
    "parse_fact",
    "prepare_program",
    "render_prometheus",
    "serve_stream",
    "serve_unix_socket",
    "split_program_and_facts",
]
