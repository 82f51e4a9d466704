"""Log order of registrations against the updates around them.

Recovery replays the WAL in order, so a register record must sit
after every update applied to the view it displaces and before every
update applied to the view it publishes.  Each race test opens a
window at one ``append`` — another thread runs an operation on the
same name while the record waits — then crashes the service (no final
checkpoint, so recovery replays the log) and checks that the
recovered view holds exactly what the live one acknowledged.
"""

import threading

import pytest

from repro.service import QueryService

RULES = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
#: How long an append waits for the racing operation to finish.  The
#: racer finishes at once when nothing orders it after the append, and
#: must wait the whole window when something does.
WINDOW = 0.3


def _durable(data_dir):
    return QueryService(
        data_dir=str(data_dir), fsync="off", checkpoint_every=10_000
    )


def _crash(service):
    """kill -9: drop the durability plane without a final checkpoint."""
    service.durability.close(final_checkpoint=False)


def _recovered_rows(data_dir):
    service = _durable(data_dir)
    try:
        return set(service.query("g", "tc"))
    finally:
        service.close()


def _race_at_append(service, op, action, logged=False):
    """Before (``logged``: just after) the first ``op`` record reaches
    the log, run ``action`` in a thread and give it up to
    :data:`WINDOW` seconds; returns the (one-element, once armed) list
    of racing threads."""
    manager = service.durability
    append = manager.append
    racers = []

    def racing_append(operation):
        armed = not racers and operation["op"] == op
        lsn = append(operation) if logged else None
        if armed:
            racer = threading.Thread(target=action)
            racers.append(racer)
            racer.start()
            racer.join(WINDOW)
        return lsn if logged else append(operation)

    manager.append = racing_append
    return racers


def test_an_update_racing_a_replace_is_logged_after_it(tmp_path):
    service = _durable(tmp_path)
    service.register("g", RULES)
    service.insert("g", "edge", "a", "b")
    acks = []
    racers = _race_at_append(
        service, "register",
        lambda: acks.append(service.insert("g", "edge", "b", "c")),
    )
    service.register("g", RULES)  # the replacement starts empty
    (racer,) = racers
    racer.join()
    assert acks, "the racing update was not acknowledged"
    live = set(service.query("g", "tc"))
    # The update could not reach the old view (the replace held its
    # lock) nor the new one before its register record was logged.
    assert len(live) == 1
    _crash(service)
    assert _recovered_rows(tmp_path) == live


def test_a_replace_waits_for_an_update_on_the_view_it_displaces(tmp_path):
    service = _durable(tmp_path)
    service.register("g", RULES)
    racers = _race_at_append(
        service, "update", lambda: service.register("g", RULES)
    )
    service.insert("g", "edge", "a", "b")  # applied to the displaced view
    (racer,) = racers
    racer.join()
    live = set(service.query("g", "tc"))
    assert live == set()
    _crash(service)
    # Logged as [register, update, register]: the insert replays into
    # the view the replace then discards, as it was applied.
    assert _recovered_rows(tmp_path) == live


def test_a_checkpoint_racing_a_registration_keeps_it(tmp_path):
    service = _durable(tmp_path)
    # The checkpoint rotates the WAL past the register record that
    # was just logged, so the record is pruned: the checkpoint itself
    # must carry the view, though it is not yet published.
    checkpoints = []
    racers = _race_at_append(
        service, "register",
        lambda: checkpoints.append(service.durability.checkpoint()),
        logged=True,
    )
    service.register("g", RULES)
    (racer,) = racers
    racer.join()
    assert checkpoints == [True]
    service.insert("g", "edge", "a", "b")
    _crash(service)
    assert _recovered_rows(tmp_path) == {("a", "b")}


@pytest.mark.parametrize("operation", ["register", "unregister"])
def test_a_failed_registry_append_changes_nothing(tmp_path, operation):
    service = _durable(tmp_path)
    try:
        service.register("g", RULES)
        service.insert("g", "edge", "a", "b")
        table = service.name_table()
        rollup = service.metrics_snapshot()["rollup"]

        def failing_append(record):
            raise OSError("disk full")

        service.durability.append = failing_append
        with pytest.raises(OSError):
            if operation == "register":
                service.register("g", RULES)
            else:
                service.unregister("g")
        assert service.name_table() is table
        assert service.metrics_snapshot()["rollup"] == rollup
        assert service.query("g", "tc") == {("a", "b")}
    finally:
        del service.durability.append
        service.close()
