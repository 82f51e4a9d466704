#!/usr/bin/env python3
"""The repo's benchmark: seven workloads against the real front doors.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` (the default) is the timed run: a real ``repro serve``
subprocess (or the library, for ``eval_paper``), one closed-loop
connection, a seeded op stream sent for ``--seconds`` seconds, every
answer checked against the from-scratch ``repro.datalog.run`` oracle;
it reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
is the traced run: a fixed op count (so counts repeat exactly), once
against a subprocess for the ``metrics``-verb counters and once each
in-process untraced, traced (``trace.py``) and under the call counter;
it reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Without ``--workload`` every workload runs; ``--smoke`` cuts the timed
window to 5% with one set-up and no traced pass; ``--counts`` adds the
count pass alone to a timed run; ``--out FILE`` appends each run's full
record to ``FILE`` (what ``compare.py`` reads).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``trace_ops`` in workloads.py are sized for this many seconds.
DEFAULT_SECONDS = 8


def _bootstrap() -> None:
    """Fix the hash seed (set iteration order decides the engines' work
    counters, which must repeat exactly for one seed) and put ``src/``
    and ``bench/`` on the path."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "bench/run.py: src/repro is missing; the benchmark measures the "
            "program in this checkout and cannot run without it\n"
        )
        raise SystemExit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


if __name__ == "__main__":
    _bootstrap()

import layers  # noqa: E402
import proc  # noqa: E402
from calibrate import Speed, pin_to_quietest_cpu  # noqa: E402
import workloads as wl  # noqa: E402
from oracle import Oracle, reply_ok  # noqa: E402
from trace import ROOT, Tracer, count_calls  # noqa: E402

now = time.perf_counter


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0–1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tally:
    """What one pass over an op stream observed."""

    def __init__(self) -> None:
        self.op_seconds: List[float] = []
        self.op_ends: List[float] = []
        self.started = self.ended = 0.0
        self.kind_seconds: Dict[str, List[float]] = {
            "write": [],
            "read_point": [],
            "read_full": [],
        }
        self.attempted = 0
        self.failed = 0
        self.reply_bytes = 0
        self.requests = 0
        self.pending: List[Tuple[wl.Check, List[str]]] = []
        self.problems: List[str] = []

    def fail(self, why: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 5:
            self.problems.append(why)

    @property
    def ok_ops(self) -> int:
        return self.attempted - self.failed

    @property
    def elapsed(self) -> float:
        return self.ended - self.started


def drive(
    request: Callable[[str], List[str]],
    ops: Iterable[wl.Op],
    tally: Tally,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    speed: Optional[Speed] = None,
) -> None:
    """Send ops one at a time, closed loop, for ``seconds`` or ``count``.

    A timeout or dropped connection ends the pass — the stream position
    is lost with it — and the ops a fixed-count pass still owed are
    recorded as failed rather than waited for.  With ``speed``, the
    machine is calibrated between ops (see ``calibrate.py``).
    """
    tally.started = now()
    deadline = None if seconds is None else tally.started + seconds
    sent = 0
    stream = iter(ops)
    while True:
        # Decide before drawing: drawing an op moves the client-side model.
        if count is not None and sent >= count:
            break
        if deadline is not None and now() >= deadline:
            break
        if speed is not None:
            speed.tick()
        op = next(stream, None)
        if op is None:
            break
        sent += 1
        tally.attempted += 1
        op_started = now()
        ok = True
        for step in op:
            step_started = now()
            try:
                reply = request(step.line)
            except (socket.timeout, ConnectionError, OSError) as exc:
                owed = 1 if count is None else count - sent + 1
                tally.fail(f"{step.line!r}: {type(exc).__name__}: {exc}", owed)
                tally.attempted += owed - 1
                tally.ended = now()
                return
            tally.kind_seconds[step.kind].append(now() - step_started)
            tally.requests += 1
            tally.reply_bytes += sum(len(line) + 1 for line in reply)
            if not reply_ok(reply):
                ok = False
                tally.fail(f"{step.line!r}: {reply[-1] if reply else 'no reply'}", 0)
            elif step.check is not None:
                tally.pending.append((step.check, reply))
        tally.op_ends.append(now())
        tally.op_seconds.append(tally.op_ends[-1] - op_started)
        if not ok:
            tally.failed += 1
    tally.ended = now()


def settle(tally: Tally, oracle: Oracle, max_checks: int) -> None:
    """Verify the sampled replies (after the clock has stopped)."""
    for check, reply in tally.pending[:max_checks]:
        problem = oracle.verify(check, reply)
        if problem is not None:
            tally.fail(f"oracle mismatch: {problem}")
    tally.pending.clear()


def final_reads(request, workload: wl.Serving, model: wl.Model, tally: Tally, oracle: Oracle) -> None:
    """One always-checked full read per view at the end of a pass."""
    steps = model.final_checks(workload.answer_predicate)
    drive(request, [(step,) for step in steps], tally, count=len(steps))
    settle(tally, oracle, len(steps))


# -- serving workloads: the subprocess side -----------------------------------


class Session:
    """A set-up server with its client, stream and model."""

    def __init__(
        self, workload: wl.Serving, seed: int, flags: Optional[Tuple[str, ...]] = None
    ):
        started = now()
        self.workload = workload
        self.server = proc.Server(workload.flags if flags is None else flags)
        try:
            self.client = self.server.connect()
            self.ready_s = now() - started
            preload, self.stream, self.model = workload.build(seed)
            self.warmup = Tally()
            for line in workload.setup_lines(preload):
                reply = self.client.request(line)
                if not reply_ok(reply):
                    raise RuntimeError(f"set-up failed: {line[:60]!r}: {reply[-1]}")
            drive(self.client.request, self.stream, self.warmup, count=workload.warmup_ops)
        except BaseException:
            self.server.close()
            raise

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.close()


def repeated_setup(
    make: Callable[[], object],
    repeats: int,
    close: Callable[[object], None],
    speed: Speed,
):
    """Set up ``repeats`` times; the last one is kept, the others closed.
    Returns ``(kept, [set-up seconds at nominal speed])``."""
    seconds = []
    kept = None
    for index in range(repeats):
        before = now()
        speed.sample(5)
        started = now()
        kept = make()
        elapsed = now() - started
        speed.sample(5)
        seconds.append(elapsed * speed.scale(before, now()))
        if index < repeats - 1:
            close(kept)
    return kept, seconds


def latency_metrics(tally: Tally, speed: Speed) -> Dict[str, float]:
    """Throughput and op latency of a timed window, at nominal speed."""
    scaled, length = speed.window(
        tally.started, tally.ended, list(zip(tally.op_ends, tally.op_seconds))
    )
    return {
        "ops_per_s": tally.ok_ops / length,
        "op_p50_ms": percentile(scaled, 0.50) * 1e3,
        "op_p95_ms": percentile(scaled, 0.95) * 1e3,
    }


def kind_metrics(tally: Tally) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind, seconds in tally.kind_seconds.items():
        if seconds:
            out[f"{kind}_p50_ms"] = percentile(seconds, 0.50) * 1e3
            out[f"{kind}_p95_ms"] = percentile(seconds, 0.95) * 1e3
            out[f"{kind}_samples"] = len(seconds)
    return out


def serving_timed(workload: wl.Serving, seed: int, seconds: float, repeats: int) -> Dict:
    speed = Speed()
    session, setups = repeated_setup(
        lambda: Session(workload, seed), repeats, lambda s: s.close(), speed
    )
    try:
        tally = Tally()
        oracle = Oracle(workload.views)
        drive(session.client.request, session.stream, tally, seconds=seconds, speed=speed)
        window = tally.elapsed
        raw_ops_per_s = tally.ok_ops / window
        metrics = latency_metrics(tally, speed)
        settle(tally, oracle, workload.max_checks)
        final_reads(session.client.request, workload, session.model, tally, oracle)
        tally.failed += session.warmup.failed
        tally.attempted += session.warmup.attempted
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = session.server.peak_rss_mb()
        return {
            "metrics": metrics,
            "detail": {
                **kind_metrics(tally),
                "window_s": window,
                "ops": len(tally.op_seconds),
                "raw_ops_per_s": raw_ops_per_s,
                "speed_scale": speed.median_scale(),
                "setups_s": setups,
                "oracle_evaluations": oracle.evaluations,
            },
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems + session.warmup.problems,
        }
    finally:
        session.close()


def scaled_ops(workload: wl.Serving, seconds: float) -> int:
    return max(10, int(workload.trace_ops * seconds / DEFAULT_SECONDS))


def serving_subprocess_pass(
    workload: wl.Serving, seed: int, ops: int, flags: Optional[Tuple[str, ...]] = None
) -> Dict:
    """The fixed-count pass against a real server: per-kind latencies,
    the no-op round trip, ``metrics``-verb counter deltas, teardown."""
    session = Session(workload, seed, flags)
    try:
        request = session.client.request
        before = json.loads(request("metrics")[-1][3:])
        tally = Tally()
        oracle = Oracle(workload.views)
        drive(request, session.stream, tally, count=ops)
        after = json.loads(request("metrics")[-1][3:])
        settle(tally, oracle, workload.max_checks)
        final_reads(request, workload, session.model, tally, oracle)
        round_trips = []
        for _ in range(300):
            started = now()
            request("views")
            round_trips.append(now() - started)
        out = {
            "tally": tally,
            "before": before,
            "after": after,
            "rtt_us": statistics.median(round_trips) * 1e6,
            "ready_s": session.ready_s,
            "teardown_s": 0.0,
            "clean_exit_share": 0.0,
        }
        if session.server.cluster:
            out.update(cluster_teardown(session))
        return out
    finally:
        session.close()


def cluster_teardown(session: Session) -> Dict[str, float]:
    """The one measured SIGTERM: client closed first, then the router is
    asked to stop.  A worker counts as a clean exit when it is gone
    within two seconds of that signal — on its own, not by waiting out
    the router's join timeout and being killed."""
    shards = json.loads(session.client.request("shards")[-1][3:])["shards"]
    workers = [info["pid"] for info in shards.values() if info.get("pid")]
    session.client.close()
    gone_at: Dict[int, float] = {}
    stop = threading.Event()
    started = now()

    def watch() -> None:
        while not stop.is_set() and len(gone_at) < len(workers):
            for pid in workers:
                if pid not in gone_at and not os.path.exists(f"/proc/{pid}"):
                    gone_at[pid] = now() - started
            time.sleep(0.02)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    session.server.process.send_signal(signal.SIGTERM)
    try:
        session.server.process.wait(60)
    except subprocess.TimeoutExpired:
        pass  # reported as the 60 s it was given; the caller kills it
    teardown = now() - started
    stop.set()
    watcher.join(5)
    clean = sum(1 for pid in workers if gone_at.get(pid, 99.0) <= 2.0)
    return {
        "teardown_s": teardown,
        "clean_exit_share": clean / len(workers) if workers else 0.0,
    }


# -- serving workloads: the in-process side -----------------------------------


class Replay:
    """The same lines through ``serve_stream`` on an in-process
    ``QueryService`` with the server's own settings."""

    def __init__(self, workload: wl.Serving, seed: int):
        from repro.core.algebra_to_datalog import translation_registry
        from repro.service import QueryService

        self.workdir = proc.RUN_DIR / f"replay-{id(self):x}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.service = QueryService(
            function_registry=translation_registry(),
            data_dir=str(self.workdir / "data"),
            fsync="batch",
        )
        self.replies: List[str] = []

    def request(self, line: str) -> List[str]:
        from repro.service import serve_stream

        self.replies = []
        serve_stream(self.service, [line], self.replies.append)
        return self.replies

    def prepare(self, request: Callable[[str], List[str]]) -> Iterator[wl.Op]:
        """Registrations and warm-up through ``request``; the stream,
        positioned at the first measured op."""
        preload, stream, self.model = self.workload.build(self.seed)
        for line in self.workload.setup_lines(preload):
            reply = request(line)
            if not reply_ok(reply):
                raise RuntimeError(f"replay set-up failed: {reply[-1]}")
        drive(request, stream, Tally(), count=self.workload.warmup_ops)
        return stream

    def close(self) -> None:
        try:
            self.service.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


@contextmanager
def replaying(workload: wl.Serving, seed: int, wrap=None):
    """A fresh in-process service taken to the first measured op; yields
    ``(request, stream)``, with ``request`` passed through ``wrap``."""
    replay = Replay(workload, seed)
    try:
        request = replay.request if wrap is None else wrap(replay.request)
        yield request, replay.prepare(request)
    finally:
        replay.close()


def serving_replays(workload: wl.Serving, seed: int, ops: int, with_trace: bool) -> Dict:
    """Untraced, traced and counted in-process replays of one stream."""
    out: Dict[str, object] = {}
    if with_trace:
        with replaying(workload, seed) as (request, stream):
            tally = Tally()
            drive(request, stream, tally, count=ops)
        out["untraced_s"] = tally.elapsed

        tracer = Tracer()
        root_kinds: List[str] = []

        def rooted(request):
            traced = tracer.wrap(ROOT, request)

            def one_root_per_line(line: str) -> List[str]:
                root_kinds.append("write" if line[0] in "+-" else "read")
                return traced(line)

            return one_root_per_line

        tracer.install()
        try:
            with replaying(workload, seed, rooted) as (request, stream):
                out["first_op_span"] = len(tracer.spans)
                root_kinds.clear()
                tally = Tally()
                drive(request, stream, tally, count=ops)
                # Closing the service checkpoints: later spans are not ops.
                out["end_op_span"] = len(tracer.spans)
        finally:
            tracer.uninstall()
        out.update(
            tracer=tracer,
            root_kinds=root_kinds,
            traced_s=tally.elapsed,
            traced_failed=tally.failed,
        )

    counted_ops = max(1, ops // 10)
    with replaying(workload, seed) as (request, stream):
        out["pycalls"] = count_calls(
            lambda: drive(request, stream, Tally(), count=counted_ops)
        )
    out["pycalls_ops"] = counted_ops
    return out


def client_framing_us(workload: wl.Serving, seed: int, ops: int) -> float:
    """Client-side cost per op of framing requests for the router: a
    short extra pass with only ``write_frame`` wrapped, so the main
    pass's latencies stay untraced."""
    tracer = Tracer()
    tracer.install(only="service.cluster.framing")
    try:
        session = Session(workload, seed)
        try:
            first = len(tracer.spans)
            drive(session.client.request, session.stream, Tally(), count=ops)
        finally:
            session.close()
    finally:
        tracer.uninstall()
    self_ns, _calls, _counts = tracer.self_times(first)
    return self_ns.get("service.cluster.framing", 0) / 1e3 / ops


def serving_traced(workload: wl.Serving, seed: int, seconds: float) -> Dict:
    ops = scaled_ops(workload, seconds)
    sub = serving_subprocess_pass(workload, seed, ops)
    tally: Tally = sub["tally"]
    hop_us = framing_us = 0.0
    if "--shards" in workload.flags:
        single = serving_subprocess_pass(workload, seed, ops, flags=())
        hop_us = (
            statistics.mean(tally.op_seconds)
            - statistics.mean(single["tally"].op_seconds)
        ) * 1e6
        framing_us = client_framing_us(workload, seed, max(10, ops // 5))
    replays = serving_replays(workload, seed, ops, with_trace=True)
    tracer: Tracer = replays["tracer"]
    tracer.write(RESULTS_DIR / f"trace-{workload.name}.jsonl")
    metrics = layers.serving_layers(
        tally=tally,
        kinds=kind_metrics(tally),
        sub=sub,
        replays=replays,
        ops=ops,
        hop_us=hop_us,
    )
    if framing_us:
        metrics["service.cluster.framing.self_us"] = framing_us
    return {
        "metrics": metrics,
        "detail": {
            "ops": ops,
            "stream_sha256": wl.stream_sha256(workload, seed, workload.warmup_ops + ops),
        },
        "attempted": tally.attempted,
        "failed": tally.failed + replays.get("traced_failed", 0),
        "problems": tally.problems,
    }


# -- eval_paper ---------------------------------------------------------------


class EvalSuite:
    """The case list plus the reference answers of its warm pass."""

    def __init__(self, seed: int):
        self.cases = wl.eval_cases(seed)
        self.reference: Dict[str, object] = {}
        self.facts = 0
        self.run_pass(Tally())  # warm pass: fills the references

    def run_case(self, case: wl.EvalCase, tally: Tally) -> None:
        tally.attempted += 1
        started = now()
        try:
            answer = case.run()
        except Exception as exc:  # an evaluation error is a failed op
            tally.fail(f"{case.name}: {type(exc).__name__}: {exc}")
            return
        tally.op_ends.append(now())
        tally.op_seconds.append(tally.op_ends[-1] - started)
        if case.group is None:
            agreed = answer is True
        else:
            self.facts += sum(len(true) for true, _undefined in answer)
            agreed = self.reference.setdefault(case.group, answer) == answer
        if not agreed:
            tally.fail(f"{case.name}: disagrees with its group")

    def run_pass(
        self,
        tally: Tally,
        cases: Optional[List[wl.EvalCase]] = None,
        speed: Optional[Speed] = None,
    ) -> float:
        started = now()
        for case in cases if cases is not None else self.cases:
            if speed is not None:
                speed.tick()
            self.run_case(case, tally)
        return now() - started


def eval_timed(seed: int, seconds: float, repeats: int) -> Dict:
    speed = Speed()
    suite, setups = repeated_setup(lambda: EvalSuite(seed), repeats, lambda _s: None, speed)
    tally = Tally()
    passes = []
    tally.started = now()
    while not passes or now() - tally.started < seconds:
        passes.append(suite.run_pass(tally, speed=speed))
    tally.ended = now()
    metrics = latency_metrics(tally, speed)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = proc.own_peak_rss_mb()
    return {
        "metrics": metrics,
        "detail": {
            "eval_suite_s": statistics.median(passes),
            "passes": len(passes),
            "cases": len(suite.cases),
            "speed_scale": speed.median_scale(),
            "setups_s": setups,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def eval_pycalls(suite: EvalSuite, tally: Tally) -> Tuple[Dict[str, int], int]:
    """The count pass: the first tenth of the case list under the call
    counter; ``(calls per module, cases counted)``."""
    counted = suite.cases[: max(5, len(suite.cases) // 10)]
    return count_calls(lambda: suite.run_pass(tally, counted)), len(counted)


def eval_traced(seed: int, seconds: float) -> Dict:
    del seconds  # one pass of each kind, whatever the clock says
    suite = EvalSuite(seed)
    tally = Tally()
    suite.facts = 0
    untraced_s = suite.run_pass(tally)
    facts = suite.facts
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = suite.run_pass(tally)
    finally:
        tracer.uninstall()
    tracer.write(RESULTS_DIR / "trace-eval_paper.jsonl")
    pycalls, counted = eval_pycalls(suite, tally)
    metrics = layers.eval_layers(
        tracer=tracer,
        cases=len(suite.cases),
        untraced_s=untraced_s,
        traced_s=traced_s,
        facts=facts,
        pycalls=pycalls,
        pycalls_ops=counted,
        tally=tally,
    )
    return {
        "metrics": metrics,
        "detail": {"cases": len(suite.cases)},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


# -- recovery_cold ------------------------------------------------------------

RECOVERY_FLAGS = ("--checkpoint-every", "1000000")


class CrashedLog:
    """A data directory holding ``records`` acked writes and no
    checkpoint, left by a SIGKILLed server; ``recover()`` restarts on a
    fresh copy of it and times spawn → first correct reply."""

    def __init__(self, seed: int, records: int):
        self.records = wl.recovery_records(seed, records)
        self.write_tally = Tally()
        server = proc.Server(RECOVERY_FLAGS)
        try:
            client = server.connect()
            reply = client.request(wl.RECOVERY_VIEW.register_line())
            if not reply_ok(reply):
                raise RuntimeError(f"set-up failed: {reply[-1]}")
            ops = [(wl.Step("write", f"+g {wl.fact_text(fact)}.", None),) for fact in self.records]
            drive(client.request, ops, self.write_tally, count=len(ops))
            client.close()
            server.kill()  # no goodbye: the log is all that survives
            self.pristine = server.workdir / "pristine"
            shutil.copytree(server.data_dir, self.pristine)
        except BaseException:
            server.close()
            raise
        self.server = server
        self.facts = frozenset(self.records)
        self.oracle = Oracle([wl.RECOVERY_VIEW])
        self.tc_check = wl.Check("g", "tc", None, self.facts)
        self.edge_check = wl.Check("g", "edge", None, self.facts)
        self.oracle.expected(self.tc_check)  # computed before any clock starts
        self.peak_rss_mb = 0.0

    def recover(self, tally: Tally) -> float:
        """One cold start; seconds from spawn to the first correct
        ``query g tc`` reply.  Every acked edge is then read back: each
        one is an attempted op, each missing one a failed op."""
        workdir = self.server.workdir
        shutil.rmtree(workdir / "data", ignore_errors=True)
        shutil.copytree(self.pristine, workdir / "data")
        server = proc.Server(RECOVERY_FLAGS, workdir=workdir)
        try:
            tally.attempted += len(self.records)
            try:
                client = server.connect()
                reply = client.request("query g tc")
                seconds = now() - server.spawned_at
                edges = client.request("query g edge")
                client.close()
            except (RuntimeError, socket.timeout, ConnectionError, OSError) as exc:
                tally.fail(f"recovery: {type(exc).__name__}: {exc}", len(self.records))
                return now() - server.spawned_at
            problem = self.oracle.verify(self.tc_check, reply)
            if problem is not None:
                tally.fail(f"first reply after recovery: {problem}", len(self.records))
            else:
                want = set(self.oracle.expected(self.edge_check)[:-1])
                missing = len(want - set(edges))
                if missing:
                    tally.fail(f"{missing} acked fact(s) unreadable", missing)
            self.peak_rss_mb = max(self.peak_rss_mb, server.peak_rss_mb())
            return seconds
        finally:
            server.kill()

    def close(self) -> None:
        self.server.close()


def recovery_timed(seed: int, seconds: float, repeats: int) -> Dict:
    speed = Speed()
    log, setups = repeated_setup(
        lambda: CrashedLog(seed, wl.RECOVERY_RECORDS), repeats, lambda l: l.close(), speed
    )
    try:
        tally = Tally()
        recoveries = []  # seconds at nominal speed
        started = now()
        while not recoveries or now() - started < seconds:
            before = now()
            speed.sample(3)
            raw = log.recover(tally)
            speed.sample(3)
            recoveries.append(raw * speed.scale(before, now()))
        readable = tally.ok_ops
        tally.failed += log.write_tally.failed
        tally.attempted += log.write_tally.attempted
        return {
            "metrics": {
                # Acked records made readable again per second of recovery.
                "ops_per_s": readable / sum(recoveries),
                "op_p50_ms": percentile(recoveries, 0.50) * 1e3,
                "op_p95_ms": percentile(recoveries, 0.95) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": log.peak_rss_mb,
            },
            "detail": {
                "recoveries": len(recoveries),
                "recovery_s": statistics.median(recoveries),
                "records": wl.RECOVERY_RECORDS,
                "speed_scale": speed.median_scale(),
                "setups_s": setups,
                **kind_metrics(log.write_tally),
            },
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems + log.write_tally.problems,
        }
    finally:
        log.close()


def recovery_in_process(log: CrashedLog, tracer: Optional[Tracer]) -> float:
    """Recover a copy of the crashed log inside this process."""
    from repro.core.algebra_to_datalog import translation_registry
    from repro.service import QueryService

    workdir = proc.RUN_DIR / f"recover-{time.monotonic_ns():x}"
    shutil.copytree(log.pristine, workdir / "data")
    try:
        make = QueryService if tracer is None else tracer.wrap(ROOT, QueryService)
        started = now()
        service = make(
            function_registry=translation_registry(),
            data_dir=str(workdir / "data"),
            fsync="batch",
            checkpoint_every=1_000_000,
        )
        elapsed = now() - started
        service.durability.close(final_checkpoint=False)
        service.durability = None
        service.close()
        return elapsed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def recovery_traced(seed: int, seconds: float) -> Dict:
    del seconds  # one recovery of each log size
    tally = Tally()
    big = CrashedLog(seed, wl.RECOVERY_RECORDS)
    small = CrashedLog(seed, wl.RECOVERY_RECORDS_SMALL)
    try:
        big_s = big.recover(tally)
        small_s = small.recover(tally)
        untraced_s = recovery_in_process(big, None)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = recovery_in_process(big, tracer)
        finally:
            tracer.uninstall()
        tracer.write(RESULTS_DIR / "trace-recovery_cold.jsonl")
        pycalls = count_calls(lambda: recovery_in_process(small, None))
        metrics = layers.recovery_layers(
            tracer=tracer,
            records=wl.RECOVERY_RECORDS,
            big_s=big_s,
            small_s=small_s,
            untraced_s=untraced_s,
            traced_s=traced_s,
            pycalls=pycalls,
            pycalls_ops=wl.RECOVERY_RECORDS_SMALL,
            write_kinds=kind_metrics(big.write_tally),
            tally=tally,
        )
        tally.failed += big.write_tally.failed + small.write_tally.failed
        tally.attempted += big.write_tally.attempted + small.write_tally.attempted
        return {
            "metrics": metrics,
            "detail": {"recovery_s": big_s, "recovery_small_s": small_s},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
        }
    finally:
        big.close()
        small.close()


# -- the command --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, repeats: int) -> Dict:
    if name == "eval_paper":
        return eval_traced(seed, seconds) if trace else eval_timed(seed, seconds, repeats)
    if name == "recovery_cold":
        return recovery_traced(seed, seconds) if trace else recovery_timed(seed, seconds, repeats)
    workload = wl.SERVING[name]
    if trace:
        return serving_traced(workload, seed, seconds)
    return serving_timed(workload, seed, seconds, repeats)


def counts_only(name: str, seed: int, seconds: float) -> Dict[str, float]:
    """``--counts``: just the ``pycalls.*`` metrics of a workload."""
    if name in wl.SERVING:
        workload = wl.SERVING[name]
        replays = serving_replays(workload, seed, scaled_ops(workload, seconds), with_trace=False)
        return layers.pycall_metrics(replays["pycalls"], replays["pycalls_ops"])
    if name == "eval_paper":
        return layers.pycall_metrics(*eval_pycalls(EvalSuite(seed), Tally()))
    log = CrashedLog(seed, wl.RECOVERY_RECORDS_SMALL)
    try:
        return layers.pycall_metrics(
            count_calls(lambda: recovery_in_process(log, None)), len(log.records)
        )
    finally:
        log.close()


def declared() -> Dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def shape_metrics(raw: Dict[str, float], section: List[Dict]) -> Dict[str, Dict]:
    """Exactly the declared metrics of one section, with their units; a
    layer the workload never enters reports 0."""
    undeclared = sorted(set(raw) - {entry["name"] for entry in section})
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return {
        entry["name"]: {"value": float(raw.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in section
    }


def append_record(path: Path, record: Dict) -> None:
    document = {"runs": []}
    if path.exists():
        document = json.loads(path.read_text())
    document["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=wl.ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--counts", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = declared()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    repeats = SETUP_REPEATS
    if args.smoke:
        seconds, repeats, args.trace = max(0.4, seconds * 0.05), 1, 0
    host = proc.host_info()
    host["cpu"] = pin_to_quietest_cpu()
    final = None
    for name in args.workload or wl.ORDER:
        started = now()
        outcome = run_workload(name, args.seed, seconds, bool(args.trace), repeats)
        section = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = shape_metrics(outcome["metrics"], section)
        pycalls = counts_only(name, args.seed, seconds) if args.counts else None
        final = {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
        }
        print(f"== {name} seed={args.seed} seconds={seconds:g} trace={args.trace} "
              f"({now() - started:.1f}s wall)")
        for metric, entry in metrics.items():
            print(f"   {metric:<48} {entry['value']:>14.4f} {entry['unit']}")
        for key, value in sorted(outcome["detail"].items()):
            print(f"   . {key:<46} {value}")
        for key, value in sorted((pycalls or {}).items()):
            print(f"   {key:<48} {value:>14.4f} calls/op")
        print(f"   attempted={final['attempted']} failed={final['failed']}")
        for problem in outcome["problems"]:
            print(f"   ! {problem}")
        if args.out:
            append_record(
                args.out,
                {
                    **final,
                    "workload": name,
                    "seed": args.seed,
                    "seconds": seconds,
                    "trace": args.trace,
                    "smoke": args.smoke,
                    "detail": outcome["detail"],
                    "pycalls": pycalls,
                    "host": host,
                },
            )
        sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
