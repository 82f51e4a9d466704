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

The names below resolve on first use (PEP 562): a stratified server
loads the circuit, the server and the durability plane, and the
annotated engine or the Prometheus exporter only when a view or a flag
asks for one.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "annotated": ("AnnotatedEngine",),
        "locks": ("AtomicReference", "InstrumentedLock"),
        "registry": (
            "Component", "PreparedProgram", "prepare_program",
            "split_program_and_facts",
        ),
        "dbsp": ("DBSPEngine", "UpdateQueue"),
        "demand": ("DemandEntry", "DemandRegistry"),
        "metrics": ("Histogram", "ServiceMetrics", "ViewMetrics"),
        "cache": ("LRUCache",),
        "views": ("MaterializedView",),
        "snapshot": ("ModelSnapshot",),
        "prometheus": ("PrometheusExporter", "render_prometheus"),
        "server": (
            "QueryService", "parse_annotated_fact", "parse_bound_pattern",
            "parse_fact", "serve_stream", "serve_unix_socket",
        ),
    },
)
