"""Burst replay ≡ record-by-record replay, and what a replay costs.

Recovery hands each view's consecutive ``update`` records, annotated or
bare, to the service as one group commit (``QueryService._commit``), so a run
reaches the engine ``coalesce`` batches per pass instead of one.  With
``coalesce=1`` the same code applies every record on its own — today's
reference for free.  The differential tests recover *one* seeded log
both ways and require identical states, reports and error lists; every
recovered model is also checked against from-scratch ``run()`` /
``annotated_model`` over the recovered facts.

The logs are written straight into a :class:`WriteAheadLog` (no
service), because they must contain what a live service never
journals: a record that no longer applies in the middle of a run.

The second half counts: passes, not records, after a recovery; and the
scaling assertion ROADMAP carried — time(4N) ≤ 5 · time(N).
"""

import json
import math
import os
import random
import shutil
import time
from types import SimpleNamespace

import pytest

from repro.datalog import annotated_model
from repro.datalog.engine import run
from repro.robustness import FaultInjector, FaultRule, inject_faults
from repro.robustness import budget as budget_module
from repro.service import QueryService
from repro.service.durability.wal import WriteAheadLog, encode_record, segment_files

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
WIN = "win(X) :- move(X, Y), not win(Y)."

#: name → (semantics, rules, semiring, base predicate, served predicate)
VIEWS = {
    "t": ("stratified", TC, "bool", "edge", "tc"),
    "w": ("valid", WIN, "bool", "move", "win"),
    "c": ("stratified", TC, "tropical", "edge", "tc"),
}
NODES = "abcdef"

SEEDS = range(2 if os.environ.get("REPRO_BENCH_SCALE") == "smoke" else 6)
#: The default burst shape, and one small enough that a 150-record log
#: fills the queue and needs several passes per run.
BURSTS = ({}, {"coalesce": 4, "queue_capacity": 8})


def _register(name, rules=None):
    semantics, source, semiring, _base, _served = VIEWS[name]
    operation = {
        "op": "register", "view": name, "source": rules or source,
        "semantics": semantics,
    }
    if semiring != "bool":
        operation["semiring"] = semiring
    return operation


def _update(name, inserts=(), deletes=()):
    return {"op": "update", "view": name,
            "inserts": list(inserts), "deletes": list(deletes)}


def _random_update(rng, name):
    base = VIEWS[name][3]
    fact = f"{base}({rng.choice(NODES)}, {rng.choice(NODES)})"
    if rng.random() < 0.3:
        return _update(name, deletes=[fact])
    if name == "c" and rng.random() < 0.5:
        # Annotated and bare writes alternate on the annotated view, in
        # one run.
        fact = f"{fact} @ {rng.randint(1, 9)}"
    return _update(name, inserts=[fact])


def _operations(seed, length=150):
    """A seeded history over three interleaved views, with everything a
    run can meet in the middle."""
    rng = random.Random(seed)
    operations = [_register(name) for name in VIEWS]
    marks = {
        length // 5: [
            # Deleted and re-inserted inside one run, on both engines.
            _update("t", inserts=["edge(a, b)"]),
            _update("t", deletes=["edge(a, b)"]),
            _update("t", inserts=["edge(a, b)"]),
            _update("w", inserts=["move(a, b)", "move(b, a)"]),
            _update("w", deletes=["move(b, a)"]),
            _update("w", inserts=["move(b, a)"]),
        ],
        2 * length // 5: [
            # Poison in the middle of a run: wrong arity, unknown view,
            # unparseable fact text.
            _update("t", inserts=["edge(c, d)"]),
            _update("t", inserts=["edge(a)"]),
            _update("ghost", inserts=["edge(a, b)"]),
            _update("t", inserts=["edge(("]),
            _update("t", inserts=["edge(d, e)"]),
            {"op": "unregister", "view": "w"},
        ],
        # ``w`` is gone in between: its updates there are history that
        # no longer applies.
        3 * length // 5: [
            _register("w"),
            # Register-replace, with a seed fact of its own.
            _register("t", TC + " edge(s, a)."),
        ],
    }
    for position in range(length):
        operations.extend(marks.get(position, ()))
        operations.append(_random_update(rng, rng.choice("ttwwc")))
    return operations


def _write_log(directory, operations, torn_tail=True):
    directory.mkdir()
    log = WriteAheadLog(directory, fsync="off")
    for operation in operations:
        log.append(operation)
    log.close()
    if torn_tail:
        (segment,) = segment_files(directory)
        frame = encode_record(b'{"lsn":999999,"op":"update","view":"t"}')
        with open(segment, "ab") as handle:
            handle.write(frame[:-5])


def _open(data_dir, **options):
    return QueryService(
        data_dir=str(data_dir), fsync="off", checkpoint_every=10**9, **options
    )


def _copy(pristine, scratch):
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(pristine, scratch)
    return scratch


def _recover(pristine, scratch, **options):
    """A fresh service recovered from a private copy of ``pristine``."""
    return _open(_copy(pristine, scratch), **options)


def _state(service):
    """Everything the two replays must agree on, per view."""
    state = {}
    for name in sorted(service.name_table()):
        view = service.view(name)
        served = VIEWS[name][4]
        true_rows, undefined_rows, stale = service.query_state(name, served)
        assert not stale
        state[name] = {
            "database": view.database.fingerprint(),
            "snapshot": view.read_snapshot().fingerprint,
            "true": true_rows,
            "undefined": undefined_rows,
            "annotations": getattr(view.engine, "maps", None),
        }
    return state


def _check_against_oracle(service):
    for name in service.name_table():
        view = service.view(name)
        semantics, _rules, semiring, _base, served = VIEWS[name]
        true_rows, undefined_rows, _stale = service.query_state(name, served)
        if semiring == "bool":
            oracle = run(view.prepared.program, view.database, semantics=semantics)
            assert true_rows == oracle.true_rows(served), name
            assert undefined_rows == oracle.undefined_rows(served), name
        else:
            assert view.engine.maps == annotated_model(
                view.prepared.program, view.database, view.semiring_obj
            ), name


def _steps(service):
    return sum(
        service.view(name).metrics.counters.get("circuit_steps", 0)
        for name in VIEWS
    )


def _lsns(errors):
    return [int(message.split(":")[0].removeprefix("lsn ")) for message in errors]


@pytest.mark.parametrize("burst", BURSTS, ids=("default", "small-queue"))
@pytest.mark.parametrize("seed", SEEDS)
def test_burst_replay_equals_record_by_record_replay(tmp_path, seed, burst):
    pristine = tmp_path / "pristine"
    _write_log(pristine, _operations(seed))
    reference = _recover(pristine, tmp_path / "reference", coalesce=1)
    bursty = _recover(pristine, tmp_path / "bursty", **burst)
    try:
        want, got = reference.last_recovery, bursty.last_recovery
        assert got.replayed_records == want.replayed_records
        assert got.skipped_records == want.skipped_records
        assert got.errors == want.errors
        assert _lsns(got.errors) == sorted(_lsns(got.errors))
        # The three poisoned records, and whatever hit ``w`` while it
        # was unregistered.
        assert got.skipped_records >= 3
        assert got.torn_records_dropped == want.torn_records_dropped == 1
        assert set(bursty.name_table()) == set(VIEWS)
        assert _state(bursty) == _state(reference)
        _check_against_oracle(bursty)
        # Not vacuous: the burst really took fewer passes.
        assert _steps(bursty) < _steps(reference)
    finally:
        reference.close()
        bursty.close()


def _chain_log(directory, views, records_per_view, chain=12):
    """``records_per_view`` single-edge inserts per view, interleaved
    record by record, building ``chain``-edge chains."""
    operations = [_register("t") | {"view": name} for name in views]
    for index in range(records_per_view):
        k, i = divmod(index, chain)
        for name in views:
            operations.append(
                _update(name, inserts=[f"edge(r{k}n{i}, r{k}n{i + 1})"])
            )
    _write_log(directory, operations, torn_tail=False)


def _counters(service, name):
    return service.view(name).metrics.counters


def test_a_fault_inside_a_burst_falls_back_to_per_batch(tmp_path):
    pristine = tmp_path / "pristine"
    _chain_log(pristine, ["g"], 40)
    reference = _recover(pristine, tmp_path / "reference")
    # The first maintained component of the first (and only) burst.
    injector = FaultInjector([FaultRule("incremental.component", at_hit=1)])
    with inject_faults(injector):
        faulted = _recover(pristine, tmp_path / "faulted")
    try:
        assert len(injector.fired) == 1
        report = faulted.last_recovery
        assert (report.replayed_records, report.skipped_records) == (41, 0)
        counters = _counters(faulted, "g")
        assert counters["rollbacks"] == 1
        # One batch per pass on the retry; two passes without the fault.
        assert counters["circuit_steps"] == 40
        assert _counters(reference, "g")["circuit_steps"] == 1
        assert faulted.query("g", "tc") == reference.query("g", "tc")
        assert (
            faulted.view("g").database.fingerprint()
            == reference.view("g").database.fingerprint()
        )
    finally:
        reference.close()
        faulted.close()


def test_a_deadline_inside_a_burst_falls_back_to_per_batch(tmp_path, monkeypatch):
    """A burst that outlives the per-pass deadline is rolled back and its
    batches retried one by one, each inside the deadline.  The clock is
    a counter — one second per look — so "too slow" means "looked at
    the clock too often", on any machine."""
    pristine = tmp_path / "pristine"
    _chain_log(pristine, ["g"], 36)
    reference = _recover(pristine, tmp_path / "reference")
    ticks = iter(range(10**9))
    monkeypatch.setattr(
        budget_module,
        "time",
        SimpleNamespace(monotonic=lambda: float(next(ticks))),
    )
    # Closing a 12-edge chain takes ~12 fixpoint rounds in one pass and
    # three at most edge by edge.
    hurried = _recover(pristine, tmp_path / "hurried", deadline_ms=8000)
    try:
        report = hurried.last_recovery
        assert (report.replayed_records, report.skipped_records) == (37, 0)
        counters = _counters(hurried, "g")
        assert counters["rollbacks"] == 1
        assert counters["circuit_steps"] == 36
        assert hurried.query("g", "tc") == reference.query("g", "tc")
    finally:
        reference.close()
        hurried.close()


def _passes(service, name):
    """(circuit steps, snapshot publishes) the view's replayed updates
    took; its registration published once."""
    counters = _counters(service, name)
    return counters.get("circuit_steps", 0), counters["snapshot_swaps"] - 1


def test_recovery_takes_passes_not_records(tmp_path):
    coalesce = 64
    single = tmp_path / "single"
    _chain_log(single, ["g"], 256)
    service = _recover(single, tmp_path / "scratch")
    try:
        assert service.coalesce == coalesce
        assert service.last_recovery.replayed_records == 257
        bound = math.ceil(256 / coalesce)
        counters = _counters(service, "g")
        assert counters["circuit_steps"] <= bound + 1
        assert counters["snapshot_swaps"] <= bound + 1
    finally:
        service.close()
    # Interleaved views still form runs: the same bound per view.
    double = tmp_path / "double"
    _chain_log(double, ["g", "h"], 128)
    service = _recover(double, tmp_path / "scratch")
    try:
        assert service.last_recovery.replayed_records == 258
        for name in ("g", "h"):
            counters = _counters(service, name)
            assert counters["circuit_steps"] <= math.ceil(128 / coalesce) + 1
            assert counters["snapshot_swaps"] <= math.ceil(128 / coalesce) + 1
    finally:
        service.close()


def test_annotated_records_join_the_run(tmp_path):
    """Annotated and bare records interleaved on one annotated view are
    one run, like bare ones: passes, not records — and the same state as
    record by record."""
    coalesce, records = 64, 128
    operations = [_register("c")]
    for index in range(records):
        k, i = divmod(index, 12)
        fact = f"edge(r{k}n{i}, r{k}n{i + 1})"
        if index % 2:
            fact = f"{fact} @ {index % 9 + 1}"
        operations.append(_update("c", inserts=[fact]))
    pristine = tmp_path / "pristine"
    _write_log(pristine, operations, torn_tail=False)
    service = _recover(pristine, tmp_path / "bursty")
    reference = _recover(pristine, tmp_path / "reference", coalesce=1)
    try:
        assert service.coalesce == coalesce
        assert service.last_recovery.replayed_records == records + 1
        bound = math.ceil(records / coalesce) + 1
        counters = _counters(service, "c")
        assert counters["circuit_steps"] <= bound
        assert counters["snapshot_swaps"] <= bound + 1
        assert _state(service) == _state(reference)
        _check_against_oracle(service)
    finally:
        service.close()
        reference.close()


def _old_format(operation):
    """A ``register`` record as logs and checkpoints once carried it."""
    return {**operation, "incremental": False}


@pytest.mark.parametrize("source", ["wal", "checkpoint"])
def test_an_old_incremental_false_record_restores_a_maintained_view(tmp_path, source):
    """Logs and checkpoints written while views could opt out of
    maintenance carry ``"incremental": false``; recovery ignores the key,
    so the boolean and the tropical view come back maintained."""
    operations = [_old_format(_register("t")), _old_format(_register("c"))]
    for i in range(6):
        operations.append(_update("t", inserts=[f"edge(n{i}, n{i + 1})"]))
        operations.append(_update("c", inserts=[f"edge(n{i}, n{i + 1}) @ {i + 1}"]))
    operations.append(_update("t", deletes=["edge(n2, n3)"]))
    operations.append(_update("c", deletes=["edge(n2, n3)"]))
    data_dir = tmp_path / "data"
    _write_log(data_dir, operations, torn_tail=False)
    if source == "checkpoint":
        # A clean shutdown leaves the whole state in one checkpoint and
        # nothing in the log past it; then the old key goes back in.
        _open(data_dir).close()
        (path,) = data_dir.glob("checkpoint-*.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        views = document["state"]["views"]
        assert set(views) == {"t", "c"}
        for entry in views.values():
            assert "incremental" not in entry
            entry["incremental"] = False
        path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    service = _open(data_dir)
    try:
        if source == "checkpoint":
            assert service.last_recovery.replayed_records == 0
        for name in ("t", "c"):
            view = service.view(name)
            assert view.mode == "incremental", name
            assert _counters(service, name).get("recompute_batches", 0) == 0
        assert service.stats("t")["maintenance"] == "dbsp"
        assert service.stats("c")["maintenance"] == "annotated"
        assert _counters(service, "c")["annotated_initializes"] == 1
        assert service.query("t", "tc") and service.query("c", "tc")
        _check_against_oracle(service)
    finally:
        service.close()


def test_recovery_work_is_linear_in_the_log(tmp_path):
    """A count, not a timing: four times the log, four times the passes."""
    passes = {}
    for records in (128, 512):
        log = tmp_path / f"log{records}"
        _chain_log(log, ["g"], records)
        service = _recover(log, tmp_path / "scratch")
        try:
            passes[records] = _passes(service, "g")
        finally:
            service.close()
    assert passes[128] == (2, 2)
    assert passes[512] == tuple(4 * count for count in passes[128])


def test_recovery_time_is_linear_in_the_log(tmp_path):
    """time(4N) ≤ 5 · time(N) at N = 200 (best of three each).

    Time is the replaying thread's CPU time, not the wall clock:
    replay runs on the calling thread, and other processes on a loaded
    box, or other threads of the test process, stretch one replay and
    not the other, so the ratio then says nothing about replay."""
    seconds = {}
    for records in (200, 800):
        log = tmp_path / f"log{records}"
        _chain_log(log, ["g"], records)
        best = float("inf")
        for _attempt in range(3):
            scratch = _copy(log, tmp_path / "scratch")
            started = time.thread_time()
            service = _open(scratch)
            best = min(best, time.thread_time() - started)
            assert service.last_recovery.replayed_records == records + 1
            service.close()
        seconds[records] = best
    assert seconds[800] <= 5 * seconds[200], seconds
