"""The seeded crash matrix: kill the service at every durability fault
point, under every fsync mode, restart, and check the recovered state
against a from-scratch oracle.

The in-process matrix simulates ``kill -9`` by dropping the durability
plane with no final checkpoint — faithful because WAL appends are
single unbuffered writes (the file system already holds everything a
killed process would have left).  The invariant:

* every **acked** operation survives the crash (recovered state ⊇ the
  acked history's state),
* the one operation in flight when the fault fired may appear or not
  (it was never acked), but nothing else may,
* the recovered derived model equals a from-scratch evaluation over
  the recovered base facts,
* journal-covered rollup counters never regress past the last acked
  observation.

Every crash point × fsync mode replays the WAL through the delta-stream
circuit; a group-commit test crashes a durable service while racing
writers coalesce, checking that every *acked* ticket was journaled
before its reply left the server.

The same matrix then runs a **three-valued** view — win-move under the
valid semantics, with 2-cycles that come and go — through the
alternating chain: recovery rebuilds the chain from the recovered
facts, true and undefined rows must equal ``run()``, and no ``@prev``
helper predicate may have reached the WAL, a checkpoint, ``stats`` or
a reply.  It runs twice more on the rebuild engine — transitive
closure and win-move under the inflationary semantics, the one
evaluated directly, the other grounded — so WAL replay and checkpoint
restore re-drive ``run()`` per burst, and recovery puts the view back
on the engine it was registered on.

Two subprocess tests then run the real thing end-to-end: ``SIGKILL``
with ``--fsync=always`` loses no acked update across a restart, and
``SIGTERM`` checkpoints on the way out (cold start replays nothing).
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import pytest

pytestmark = pytest.mark.slow

from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.robustness import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    inject_faults,
)
from repro.robustness.faults import ALL_POINTS
from repro.service import QueryService

RULES = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."

SCRIPT = (
    ("insert", ("a", "b")),
    ("insert", ("b", "c")),
    ("delete", ("a", "b")),
    ("insert", ("c", "d")),
    ("insert", ("a", "e")),
    ("delete", ("b", "c")),
    ("insert", ("e", "f")),
)

#: The three-valued config: a-b and c-d are 2-cycles with no exit
#: (both ends undefined) until an exit move decides them.
WIN_RULES = "win(X) :- move(X, Y), not win(Y)."
WIN_SCRIPT = (
    ("insert", ("a", "b")),
    ("insert", ("b", "a")),
    ("insert", ("c", "d")),
    ("insert", ("d", "c")),
    ("insert", ("b", "x")),
    ("delete", ("b", "a")),
    ("insert", ("d", "a")),
    ("delete", ("b", "x")),
    ("insert", ("b", "a")),
)


class Config(NamedTuple):
    """What one crash-matrix run registers, drives and queries."""

    rules: str
    semantics: str
    predicate: str
    query: str
    script: tuple


TC_CONFIG = Config(RULES, "stratified", "edge", "tc", SCRIPT)
WIN_CONFIG = Config(WIN_RULES, "valid", "move", "win", WIN_SCRIPT)
#: The rebuild engine's two routes through ``run()``: a positive
#: program evaluated directly, and one with negation, grounded.
TC_RECOMPUTE_CONFIG = Config(RULES, "inflationary", "edge", "tc", SCRIPT)
WIN_INFLATIONARY_CONFIG = Config(
    WIN_RULES, "inflationary", "move", "win", WIN_SCRIPT
)

MONOTONE_KEYS = ("inserts_applied", "deletes_applied")

FSYNC_MODES = ("always", "batch", "off")
CRASH_POINTS = (
    "durability.append",
    "durability.fsync",
    "durability.checkpoint",
)


def _durable(data_dir, fsync):
    return QueryService(data_dir=str(data_dir), fsync=fsync, checkpoint_every=3)


def _run_script(service, config=TC_CONFIG):
    """Drive the config's op script; returns the acked shadow state.

    ``shadow`` is the base-fact set after the last acked operation;
    ``pending`` the operation in flight when a fault fired (None when
    the script completed); ``last_rollup`` the rollup after the last
    ack."""
    shadow = set()
    pending = None
    registered = False
    last_rollup = {}
    try:
        pending = ("register", None)
        service.register("g", config.rules, semantics=config.semantics)
        registered = True
        pending = None
        last_rollup = dict(service.metrics_snapshot()["rollup"])
        for op, row in config.script:
            pending = (op, row)
            if op == "insert":
                service.insert("g", config.predicate, *row)
                shadow.add((config.predicate, row))
            else:
                service.delete("g", config.predicate, *row)
                shadow.discard((config.predicate, row))
            pending = None
            last_rollup = dict(service.metrics_snapshot()["rollup"])
    except InjectedFault:
        pass
    return shadow, pending, registered, last_rollup


def _crash(service):
    """Simulate kill -9: drop the plane without a final checkpoint.

    The close itself may hit an injected fsync fault — that is still a
    crash (the unbuffered writes already reached the page cache), not
    a test failure."""
    try:
        service.durability.close(final_checkpoint=False)
    except InjectedFault:
        pass


def _verify_recovery(
    data_dir, fsync, shadow, pending, registered, rollup, config=TC_CONFIG,
):
    recovered = _durable(data_dir, fsync)
    try:
        names = recovered.name_table()
        if "g" not in names:
            # Only possible when the register itself was the operation
            # that crashed — losing an unacked registration is fine,
            # losing an acked one is not.
            assert not registered or pending == ("register", None)
            assert shadow == set()
            return
        view = recovered.view("g")
        assert view.mode == (
            "recompute" if config.semantics == "inflationary" else "incremental"
        )
        assert view.read_snapshot() is not None
        got = {(predicate, tuple(row)) for predicate, row in view.database}
        candidates = [frozenset(shadow)]
        if pending is not None and pending[0] in ("insert", "delete"):
            altered = set(shadow)
            fact = (config.predicate, pending[1])
            if pending[0] == "insert":
                altered.add(fact)
            else:
                altered.discard(fact)
            candidates.append(frozenset(altered))
        assert frozenset(got) in candidates, (
            f"recovered base facts {sorted(got)} match neither the "
            f"acked state {sorted(shadow)} nor acked+pending {pending}"
        )
        # From-scratch oracle: the recovered derived model, both truth
        # statuses, must equal a clean evaluation over the recovered
        # base facts.
        database = Database()
        for predicate, row in got:
            database.add(predicate, *row)
        oracle = run(
            parse_program(config.rules), database, semantics=config.semantics
        )
        true_rows, undefined_rows, stale = recovered.query_state(
            "g", config.query
        )
        assert not stale
        assert true_rows == oracle.true_rows(config.query)
        assert undefined_rows == oracle.undefined_rows(config.query)
        # Monotone rollup for journal-covered counters.
        post = recovered.metrics_snapshot()["rollup"]
        for key in MONOTONE_KEYS:
            assert post.get(key, 0) >= rollup.get(key, 0), key
        assert recovered.metrics_snapshot()["counters"]["recoveries"] >= 1
    finally:
        recovered.close()


def _count_hits(data_dir, fsync, point, config=TC_CONFIG):
    """How often ``point`` fires during a fault-free scripted run."""
    counter = FaultInjector()
    with inject_faults(counter):
        service = _durable(data_dir, fsync)
        _run_script(service, config)
        _crash(service)
    return counter.hits.get(point, 0)


def _crash_matrix(tmp_path, fsync, point, config):
    assert point in ALL_POINTS
    hits = _count_hits(tmp_path / "count", fsync, point, config)
    if hits == 0:
        pytest.skip(f"{point} is never reached under fsync={fsync}")
    # hits+1 never fires: the full script runs, then the crash —
    # recovery must restore the complete acked history.
    for at_hit in range(1, hits + 2):
        data_dir = tmp_path / f"hit-{at_hit}"
        injector = FaultInjector([FaultRule(point, at_hit=at_hit, times=1)])
        with inject_faults(injector):
            service = _durable(data_dir, fsync)
            shadow, pending, registered, rollup = _run_script(service, config)
            _crash(service)
        if at_hit > hits:
            assert pending is None, "the out-of-range rule must not fire"
        _verify_recovery(
            data_dir, fsync, shadow, pending, registered, rollup, config
        )


@pytest.mark.parametrize("fsync", FSYNC_MODES)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_matrix(tmp_path, fsync, point):
    """Kill at the Nth reach of ``point``, for every N, then recover —
    replaying the WAL through the delta-stream circuit."""
    _crash_matrix(tmp_path, fsync, point, TC_CONFIG)


@pytest.mark.parametrize("fsync", FSYNC_MODES)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_matrix_valid(tmp_path, fsync, point):
    """The same matrix on a three-valued view: recovery rebuilds the
    alternating chain from the recovered facts, and true *and*
    undefined rows equal ``run()``."""
    _crash_matrix(tmp_path, fsync, point, WIN_CONFIG)


@pytest.mark.parametrize("fsync", FSYNC_MODES)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_matrix_recompute(tmp_path, fsync, point):
    """The matrix on an inflationary transitive closure: recovery
    re-registers it on the rebuild engine and replays the WAL one
    ``run()`` per burst."""
    _crash_matrix(tmp_path, fsync, point, TC_RECOMPUTE_CONFIG)


@pytest.mark.parametrize("fsync", FSYNC_MODES)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_matrix_inflationary(tmp_path, fsync, point):
    """The matrix on an inflationary view with negation: recovered rows
    equal ``run(semantics="inflationary")``."""
    _crash_matrix(tmp_path, fsync, point, WIN_INFLATIONARY_CONFIG)


def test_no_helper_predicate_leaves_the_engine(tmp_path):
    """The chain's ``@prev`` predicates are engine-internal: after a
    scripted run with a checkpoint and a WAL suffix, none is in the
    data directory, in ``predicates()``, ``stats``, ``metrics``, a
    reply or a fingerprint input — and recovery restores the view on
    the chain, undefined rows included."""
    import json

    from repro.service import serve_stream

    service = _durable(tmp_path, "off")
    shadow, pending, _registered, _rollup = _run_script(service, WIN_CONFIG)
    assert pending is None
    view = service.view("g")
    assert view.alternation_levels() >= 2
    replies = []
    serve_stream(
        service,
        ["query g win", "query g win(a)", "stats g", "metrics", "views"],
        replies.append,
    )
    assert any(line.startswith("undef ") for line in replies)
    surfaces = [
        "\n".join(replies),
        json.dumps(service.stats("g")),
        repr(sorted(view.predicates())),
        repr(sorted(view.read_snapshot().predicates())),
        repr(sorted(view.database.predicates())),
    ]
    _crash(service)
    for path in tmp_path.rglob("*"):
        if path.is_file():
            surfaces.append(path.read_bytes().decode("utf-8", "replace"))
    assert len(surfaces) > 6, "no WAL segment or checkpoint was written"
    for text in surfaces:
        assert "@" not in text, text[:200]
    recovered = _durable(tmp_path, "off")
    try:
        restored = recovered.view("g")
        assert restored.mode == "incremental"
        assert restored.alternation_levels() >= 2
        assert (
            restored.read_snapshot().fingerprint
            == view.read_snapshot().fingerprint
        )
        # Both 2-cycles are back, and d's only exit leads into one.
        assert recovered.query_state("g", "win")[1] == {
            ("a",), ("b",), ("c",), ("d",),
        }
    finally:
        recovered.close()


def test_group_commit_journal_survives_crash(tmp_path):
    """Racing writers through the coalescing queue, then kill -9.

    Group commit must not weaken durability: a ticket is acked only
    after the leader journaled its batch, so every update whose
    ``service.update`` returned survives the crash — however many
    tickets each circuit pass coalesced."""
    service = QueryService(
        data_dir=str(tmp_path), fsync="off", checkpoint_every=10_000,
        coalesce=4,
    )
    service.register("g", RULES)
    acked = set()
    acked_lock = threading.Lock()
    failures = []

    def writer(offset):
        try:
            for i in range(8):
                row = (f"w{offset}n{i}", f"w{offset}n{i + 1}")
                service.insert("g", "edge", *row)
                with acked_lock:
                    acked.add(("edge", row))
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures
    coalesced = service.metrics_snapshot()["rollup"].get(
        "delta_batches_coalesced", 0
    )
    _crash(service)

    recovered = QueryService(data_dir=str(tmp_path), fsync="off")
    try:
        got = {
            (predicate, tuple(row))
            for predicate, row in recovered.view("g").database
        }
        assert got >= acked, sorted(acked - got)
        oracle = QueryService()
        oracle.register("g", RULES)
        oracle.update("g", inserts=sorted(got))
        assert recovered.query("g", "tc") == oracle.query("g", "tc")
        oracle.close()
    finally:
        recovered.close()
    # Not asserted > 0 — coalescing needs contention the scheduler may
    # not produce — but recorded so a sustained zero is visible.
    assert coalesced >= 0


def test_crash_during_recovery_is_retryable(tmp_path):
    """A fault at ``durability.recover`` aborts the boot cleanly; the
    next attempt recovers everything."""
    service = _durable(tmp_path, "batch")
    shadow, pending, registered, rollup = _run_script(service)
    assert pending is None
    _crash(service)
    injector = FaultInjector([FaultRule("durability.recover", times=1)])
    with inject_faults(injector):
        with pytest.raises(InjectedFault):
            _durable(tmp_path, "batch")
    # The failed boot released the data-dir lock and wrote nothing.
    _verify_recovery(tmp_path, "batch", shadow, None, registered, rollup)


def test_recovery_orders_atom_rows(tmp_path):
    """Recovery must order facts without comparing row values.

    Rows parsed from protocol text hold ``Atom``s, which define no
    ``<`` — so any checkpoint or WAL record carrying two facts of the
    same predicate used to crash recovery's ``sorted`` (a plain-string
    row, as the rest of this file uses, sorts fine and hid the bug)."""
    from repro.service.server import parse_fact

    facts = [
        parse_fact("edge(a, b)"),
        parse_fact("edge(b, c)"),
        parse_fact("edge(c, d)"),
    ]
    # WAL-replay path: one multi-fact batch, crash before any
    # checkpoint — replay re-drives the batch through ``_apply_record``.
    service = QueryService(
        data_dir=str(tmp_path / "wal"), fsync="off", checkpoint_every=10_000
    )
    service.register("g", RULES)
    service.update("g", inserts=facts)
    _crash(service)
    recovered = QueryService(data_dir=str(tmp_path / "wal"), fsync="off")
    try:
        assert recovered.last_recovery.replayed_records >= 1
        rows = {tuple(map(str, row)) for row in recovered.query("g", "tc")}
        assert ("a", "d") in rows
    finally:
        recovered.close()
    # Checkpoint-restore path: graceful close checkpoints the full
    # fact set — restore diffs and sorts it in ``_restore_view``.
    service = QueryService(data_dir=str(tmp_path / "ckpt"), fsync="off")
    service.register("g", RULES)
    service.update("g", inserts=facts)
    service.close()
    recovered = QueryService(data_dir=str(tmp_path / "ckpt"), fsync="off")
    try:
        assert recovered.last_recovery.views_restored == 1
        assert recovered.last_recovery.replayed_records == 0
        rows = {tuple(map(str, row)) for row in recovered.query("g", "tc")}
        assert ("a", "d") in rows
    finally:
        recovered.close()


def test_repeated_crashes_converge(tmp_path):
    """Crash-recover-crash-recover: each generation keeps the state."""
    service = _durable(tmp_path, "off")
    shadow, pending, _registered, _rollup = _run_script(service)
    assert pending is None
    _crash(service)
    generations = []
    for _round in range(3):
        recovered = _durable(tmp_path, "off")
        generations.append(recovered.last_recovery.generation)
        got = {
            (predicate, tuple(row))
            for predicate, row in recovered.view("g").database
        }
        assert got == shadow
        _crash(recovered)
    assert generations == sorted(generations)
    assert len(set(generations)) == 3


# ---------------------------------------------------------------------------
# subprocess end-to-end: real processes, real signals
# ---------------------------------------------------------------------------


class _LineClient:
    """A minimal client for the single-process line protocol."""

    def __init__(self, socket_path, timeout=30.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(socket_path)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.writer = self.sock.makefile("w", encoding="utf-8")

    def request(self, line):
        self.writer.write(line + "\n")
        self.writer.flush()
        replies = []
        while True:
            reply = self.reader.readline()
            if not reply:
                raise ConnectionError("server closed mid-reply")
            reply = reply.rstrip("\n")
            replies.append(reply)
            if reply == "ok" or reply.startswith(("ok ", "error")):
                return replies

    def request_ok(self, line):
        replies = self.request(line)
        assert not replies[-1].startswith("error"), replies[-1]
        return replies

    def close(self):
        self.sock.close()


def _spawn_server(socket_path, data_dir, fsync):
    env = dict(os.environ)
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = os.path.join(root, "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--data-dir",
            data_dir,
            f"--fsync={fsync}",
            "--checkpoint-every=1000",
        ],
        env=env,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60
    while not os.path.exists(socket_path):
        if process.poll() is not None:
            raise AssertionError(
                f"server died on startup: "
                f"{process.stderr.read().decode(errors='replace')}"
            )
        assert time.monotonic() < deadline, "socket never appeared"
        time.sleep(0.05)
    return process


def test_sigkill_loses_no_acked_update_with_fsync_always(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    data_dir = str(tmp_path / "data")
    process = _spawn_server(socket_path, data_dir, "always")
    try:
        client = _LineClient(socket_path)
        client.request_ok(f"register g stratified {RULES}")
        client.request_ok("+g edge(a, b)")
        client.request_ok("+g edge(b, c)")
        client.close()
    finally:
        # kill -9: nothing flushes, nothing checkpoints.
        process.kill()
        process.wait(timeout=30)
    os.unlink(socket_path)

    process = _spawn_server(socket_path, data_dir, "always")
    try:
        client = _LineClient(socket_path)
        replies = client.request_ok("query g tc")
        rows = sorted(r for r in replies if r.startswith("row "))
        assert rows == [
            "row tc(a, b)",
            "row tc(a, c)",
            "row tc(b, c)",
        ], rows
        client.close()
    finally:
        process.terminate()
        process.wait(timeout=30)


def test_sigterm_checkpoints_and_unlinks_the_socket(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    data_dir = str(tmp_path / "data")
    process = _spawn_server(socket_path, data_dir, "batch")
    client = _LineClient(socket_path)
    client.request_ok(f"register g stratified {RULES}")
    client.request_ok("+g edge(x, y)")
    client.close()
    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=30) == 0
    assert not os.path.exists(socket_path), "graceful exit unlinks"
    # The shutdown checkpoint covered everything: a cold start replays
    # no WAL records and still has the acked state.
    service = QueryService(data_dir=data_dir, fsync="batch")
    try:
        assert service.last_recovery.replayed_records == 0
        assert service.last_recovery.views_restored == 1
        rows = {tuple(map(str, row)) for row in service.query("g", "tc")}
        assert rows == {("x", "y")}
    finally:
        service.close()


def test_sigterm_does_not_wait_for_an_idle_connection(tmp_path):
    """A client that keeps its connection open and says nothing (a
    router's pooled connection) must not hold shutdown up: on SIGTERM
    the server hangs up on it, checkpoints, and is gone in under 2 s —
    not after the handler join times out."""
    socket_path = str(tmp_path / "serve.sock")
    data_dir = str(tmp_path / "data")
    process = _spawn_server(socket_path, data_dir, "batch")
    client = _LineClient(socket_path)
    try:
        client.request_ok(f"register g stratified {RULES}")
        client.request_ok("+g edge(x, y)")
        started = time.monotonic()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert time.monotonic() - started < 2.0
        assert client.reader.readline() == "", "the idle client sees EOF"
    finally:
        client.close()
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    assert not os.path.exists(socket_path), "graceful exit unlinks"
    service = QueryService(data_dir=data_dir, fsync="batch")
    try:
        assert service.last_recovery.replayed_records == 0, (
            "the final checkpoint was written"
        )
        rows = {tuple(map(str, row)) for row in service.query("g", "tc")}
        assert rows == {("x", "y")}
    finally:
        service.close()
