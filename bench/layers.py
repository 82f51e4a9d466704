"""Per-layer metrics of a traced run, from its three sources.

* spans (``trace.py``): ``*.self_us`` / ``*.self_ms`` — self time per op
  inside the in-process traced replay;
* the ``metrics`` verb of the untraced subprocess pass, as the delta
  over the measured ops: counts and ratios that repeat exactly for a
  seed (``rules_fired``, ``wal.fsyncs``, cache and demand hits …);
* the client side of that pass: per-kind latencies, reply bytes, the
  no-op round trip, teardown.

Layer names are the repo's module names.  A metric a workload has no
work for is left out here and reported as 0 by ``run.py``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from trace import ROOT, Tracer

#: Span layer -> metric, in µs of self time per op.
SELF_US = {
    "service.server.parse": "service.server.parse.self_us",
    ROOT: "service.server.dispatch.self_us",
    "service.server.update": "service.server.update.self_us",
    "service.server.query": "service.server.query.self_us",
    "service.dbsp.queue": "service.dbsp.queue.wait_us",
    "service.views.apply": "service.views.apply.self_us",
    "service.dbsp.engine": "service.dbsp.engine.self_us",
    "service.annotated": "service.annotated.self_us",
    "service.views.recompute": "service.views.recompute.self_us",
    "service.snapshot.publish": "service.snapshot.publish.self_us",
    "service.snapshot.compact": "service.snapshot.compact.self_us",
    "service.snapshot.rows": "service.snapshot.rows.self_us",
    "service.cache": "service.cache.self_us",
    "service.demand.register": "service.demand.register.self_us",
    "datalog.magic": "datalog.magic.self_us",
    "service.durability.wal.append": "service.durability.wal.append.self_us",
    "service.durability.wal.sync": "service.durability.wal.sync.self_us",
    "service.cluster.framing": "service.cluster.framing.self_us",
}
#: Span layer -> metric, in ms of self time per op (the evaluation layers).
SELF_MS = {
    "datalog.parser": "datalog.parser.self_ms",
    "lang.parser": "lang.parser.self_ms",
    "datalog.grounding": "datalog.grounding.self_ms",
    "datalog.seminaive": "datalog.seminaive.self_ms",
    "datalog.semantics.stratified": "datalog.semantics.stratified.self_ms",
    "datalog.semantics.inflationary": "datalog.semantics.inflationary.self_ms",
    "datalog.semantics.wellfounded": "datalog.semantics.wellfounded.self_ms",
    "datalog.semantics.valid": "datalog.semantics.valid.self_ms",
    "core.algebra_to_datalog": "core.algebra_to_datalog.self_ms",
    "core.datalog_to_algebra": "core.datalog_to_algebra.self_ms",
    "core.valid_eval": "core.valid_eval.self_ms",
    "service.durability.checkpoint": "service.durability.checkpoint.self_ms",
}
ENGINES = ("service.dbsp.engine", "service.annotated")


def span_metrics(self_ns: Dict[str, int], counts: Dict[str, int], ops: int) -> Dict[str, float]:
    """Self time per op of every layer (``Tracer.self_times`` output)."""
    out: Dict[str, float] = {}
    for layer, metric in SELF_US.items():
        if layer in self_ns:
            out[metric] = self_ns[layer] / 1e3 / ops
    for layer, metric in SELF_MS.items():
        if layer in self_ns:
            out[metric] = self_ns[layer] / 1e6 / ops
    if "datalog.grounding" in counts:
        out["datalog.grounding.ground_rules"] = counts["datalog.grounding"] / ops
    return out


def pycall_metrics(calls: Dict[str, int], ops: int) -> Dict[str, float]:
    def under(prefix: str) -> int:
        return sum(n for module, n in calls.items() if module.startswith(prefix))

    return {
        "pycalls.datalog.seminaive": under("repro.datalog.seminaive") / ops,
        "pycalls.service.dbsp.engine": under("repro.service.dbsp.engine") / ops,
        "pycalls.service.snapshot": under("repro.service.snapshot") / ops,
        "pycalls.total": sum(calls.values()) / ops,
    }


def harness_metrics(untraced_s: float, traced_s: float) -> Dict[str, float]:
    return {"trace.overhead_share": (traced_s - untraced_s) / untraced_s}


def kind_latencies(kinds: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value for name, value in kinds.items() if not name.endswith("_samples")
    }


def failed_share(tally) -> Dict[str, float]:
    return {
        "failed_op_share": tally.failed / tally.attempted if tally.attempted else 0.0
    }


class Verbs:
    """Counter deltas between two ``metrics`` documents (single node or
    the cluster rollup, whose router keeps its own counters)."""

    def __init__(self, before: Dict, after: Dict):
        self.before, self.after = before, after

    @staticmethod
    def _lookup(document: Dict, section: str, name: str) -> float:
        total = document.get(section, {}).get(name, 0)
        router = document.get("router", {})
        if section == "counters":
            total += router.get("counters", {}).get(name, 0)
        return total

    def delta(self, section: str, name: str) -> float:
        return self._lookup(self.after, section, name) - self._lookup(
            self.before, section, name
        )

    def lock_wait_us(self) -> float:
        def wait(document: Dict, key: str) -> float:
            return document.get("locks", {}).get("wait", {}).get(key, 0)

        count = wait(self.after, "count") - wait(self.before, "count")
        total = wait(self.after, "sum") - wait(self.before, "sum")
        return total / count * 1e6 if count else 0.0


def write_share(
    tracer: Tracer, first: int, end: int, root_kinds: List[str]
) -> Optional[float]:
    """Share of the write requests' time spent in the maintenance engine
    (circuit or annotated): what separates ``rw_large`` from
    ``write_small``."""
    spans = tracer.spans
    root_of = [0] * len(spans)
    child_ns = [0] * len(spans)
    for index, (_layer, start, stop, parent, _count) in enumerate(spans):
        root_of[index] = index if parent < 0 else root_of[parent]
        if parent >= 0:
            child_ns[parent] += stop - start
    roots = [i for i in range(first, end) if spans[i][3] < 0]
    if len(roots) != len(root_kinds):
        return None
    kind_of = dict(zip(roots, root_kinds))
    write_ns = sum(
        spans[i][2] - spans[i][1] for i in roots if kind_of[i] == "write"
    )
    engine_ns = sum(
        (spans[i][2] - spans[i][1]) - child_ns[i]
        for i in range(first, end)
        if spans[i][0] in ENGINES and kind_of.get(root_of[i]) == "write"
    )
    return engine_ns / write_ns if write_ns else None


def serving_layers(tally, kinds, sub, replays, ops: int, hop_us: float) -> Dict[str, float]:
    tracer: Tracer = replays["tracer"]
    first, end = replays["first_op_span"], replays["end_op_span"]
    verbs = Verbs(sub["before"], sub["after"])
    writes = len(tally.kind_seconds["write"]) or 1
    self_ns, _calls, counts = tracer.self_times(first, end)
    out = span_metrics(self_ns, counts, ops)
    # Registration (prepare → initialize) happens in set-up: its spans
    # sit before the first measured op and are reported per registration.
    setup_ns, setup_calls, _ = tracer.self_times(0, first)
    if setup_calls.get("service.registry.prepare"):
        out["service.registry.prepare.self_ms"] = (
            setup_ns["service.registry.prepare"]
            / 1e6
            / setup_calls["service.registry.prepare"]
        )
    out.update(kind_latencies(kinds))
    out.update(failed_share(tally))
    out.update(pycall_metrics(replays["pycalls"], replays["pycalls_ops"]))
    out.update(harness_metrics(replays["untraced_s"], replays["traced_s"]))
    share = write_share(tracer, first, end, replays["root_kinds"])
    if share is not None:
        out["service.dbsp.engine.write_share"] = share
    mean_latency_us = statistics.mean(tally.op_seconds) * 1e6
    requests_per_op = tally.requests / len(tally.op_seconds)
    out.update(
        {
            "service.server.reply_bytes": tally.reply_bytes / tally.requests,
            "service.server.socket.rtt_us": sub["rtt_us"],
            "service.locks.wait_us": verbs.lock_wait_us(),
            "service.dbsp.queue.coalesced_share": verbs.delta(
                "rollup", "delta_batches_coalesced"
            )
            / writes,
            "service.dbsp.engine.rules_fired": verbs.delta("rollup", "rules_fired") / writes,
            "service.dbsp.engine.delta_rows": (
                verbs.delta("rollup", "delta_plus_total")
                + verbs.delta("rollup", "delta_minus_total")
            )
            / writes,
            "service.views.recompute_batches": verbs.delta("rollup", "recompute_batches"),
            "service.snapshot.compactions": verbs.delta("rollup", "compactions"),
            "service.cache.hit_ratio": _ratio(
                verbs.delta("cache", "hits"), verbs.delta("cache", "misses")
            ),
            "service.demand.hit_ratio": _ratio(
                verbs.delta("counters", "demand_hits"),
                verbs.delta("counters", "demand_registrations")
                + verbs.delta("counters", "demand_fallbacks"),
            ),
            "service.demand.evictions": verbs.delta("counters", "demand_evictions"),
            "service.durability.wal.fsyncs": verbs.delta("counters", "wal_fsyncs"),
            "service.durability.wal.bytes_per_write": counts.get(
                "service.durability.wal.append", 0
            )
            / writes,
            "service.durability.checkpoint.count": verbs.delta(
                "counters", "wal_checkpoints"
            ),
            "service.cluster.router.hop_us": hop_us,
            "service.cluster.spawn_s": sub["ready_s"] if hop_us else 0.0,
            "service.cluster.worker.clean_exit_share": sub["clean_exit_share"],
            "teardown_s": sub["teardown_s"],
            # In-process time of the request layers plus the socket round
            # trip, against what the subprocess client actually waited.
            "trace.coverage": (
                replays["untraced_s"] / ops * 1e6 + sub["rtt_us"] * requests_per_op
            )
            / mean_latency_us,
        }
    )
    return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def eval_layers(tracer, cases, untraced_s, traced_s, facts, pycalls, pycalls_ops, tally) -> Dict[str, float]:
    self_ns, _calls, counts = tracer.self_times()
    out = span_metrics(self_ns, counts, cases)
    out.update(harness_metrics(untraced_s, traced_s))
    out.update(pycall_metrics(pycalls, pycalls_ops))
    out.update(failed_share(tally))
    out["eval_suite_s"] = untraced_s
    out["datalog.engine.facts_per_s"] = facts / untraced_s
    out["trace.coverage"] = sum(self_ns.values()) / 1e9 / traced_s
    return out


def recovery_layers(
    tracer, records, big_s, small_s, untraced_s, traced_s, pycalls, pycalls_ops, write_kinds, tally
) -> Dict[str, float]:
    self_ns, _calls, counts = tracer.self_times()
    out = span_metrics(self_ns, counts, records)
    out.update(harness_metrics(untraced_s, traced_s))
    out.update(pycall_metrics(pycalls, pycalls_ops))
    out.update(kind_latencies(write_kinds))
    out.update(failed_share(tally))
    out["recovery_s"] = big_s
    out["service.durability.recovery.records_per_s"] = records / big_s
    out["service.durability.recovery.scaling_ratio"] = big_s / small_s
    # In-process recovery against the subprocess's spawn → first reply.
    out["trace.coverage"] = untraced_s / big_s
    return out
