"""Regression tests for register/unregister races in the query service.

Each test pins one of the races the per-view lock sharding opened up:

* a ``cache.put`` completed by an in-flight request against a replaced
  registration must never be served to queries against the replacement
  (per-registration cache generations);
* the name table is the only record of what is registered, and churn
  leaves every entry serving its own program;
* ``unregister`` takes the view lock before the registry lock, so an
  update the service acknowledges has really landed in a registered
  view — never silently discarded with the view;
* only register, unregister and the metrics snapshot take the registry
  lock: reads and writes resolve their view off the published table;
* the metrics rollup stays monotone across register/unregister churn
  (live and retired counters are swapped atomically).
"""

import threading

import pytest

from repro.datalog.database import Database
from repro.relations import Atom
from repro.service import QueryService

PROGRAM = "p(X) :- base(X).\n"


def _database(*names):
    database = Database()
    database.declare("base")
    for name in names:
        database.add("base", Atom(name))
    return database


class TestStaleCacheGenerations:
    def test_inflight_put_against_replaced_view_is_unreachable(self):
        """The high-severity race: an in-flight query resolves the old
        view, the view is replaced (which invalidates the cache), and
        then the in-flight query completes its ``cache.put`` of
        old-view rows.  The put must land under a dead generation, not
        poison queries against the replacement."""
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        assert service.query("tc", "p") == {(Atom("a"),)}

        # An in-flight request resolves (view, generation, snapshot) ...
        old_view, old_generation, old_snapshot = service._resolve_snapshot("tc")
        # ... then the registration is replaced (swap + invalidate) ...
        service.register("tc", PROGRAM, database=_database("b"))
        # ... and only now does the straggler finish, caching old rows.
        stale = service._serve_true(
            old_view, "tc", old_generation, old_snapshot, "p"
        )
        assert stale == {(Atom("a"),)}

        # The replacement's queries must never see the straggler's put.
        assert service.query("tc", "p") == {(Atom("b"),)}
        assert service.query("tc", "p") == {(Atom("b"),)}  # cached path

    def test_inflight_put_after_unregister_then_reregister(self):
        """Same race through unregister + fresh register of the name."""
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        service.query("tc", "p")
        old_view, old_generation, old_snapshot = service._resolve_snapshot("tc")
        service.unregister("tc")
        service.register("tc", PROGRAM, database=_database("c"))
        service._serve_true(old_view, "tc", old_generation, old_snapshot, "p")
        assert service.query("tc", "p") == {(Atom("c"),)}

    def test_generation_bumps_on_every_register(self):
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        first = service.name_table()["tc"][1]
        service.register("tc", PROGRAM, database=_database("b"))
        second = service.name_table()["tc"][1]
        assert second > first


class TestRegistryViewLockstep:
    def test_tables_agree_after_register_unregister_churn(self):
        """Racing register/unregister on one name must never leave a
        view without its program (the KeyError-over-the-wire bug) and
        must leave the one table serving what it names at quiescence."""
        service = QueryService()
        errors = []
        barrier = threading.Barrier(4)

        def churn(seed):
            barrier.wait()
            try:
                for _ in range(25):
                    service.register(
                        "shared", PROGRAM, database=_database("a")
                    )
                    try:
                        service.unregister("shared")
                    except KeyError as exc:
                        # Losing the unregister race to another thread
                        # is fine — but only with the "no view" error.
                        if "no view registered" not in str(exc):
                            raise
            except Exception as exc:
                errors.append(f"churn {seed}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        # Whatever survived carries its own program and lock, and serves.
        for name, (view, _generation) in service.name_table().items():
            assert service.view(name) is view
            assert view.prepared.name == view.lock.name == name
            assert view.prepared.source == PROGRAM
            service.query(name, "p")

    def test_register_stores_program_with_view(self):
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        assert service.view("tc").prepared.source == PROGRAM
        service.unregister("tc")
        assert "tc" not in service.name_table()
        with pytest.raises(KeyError, match="no view registered"):
            service.view("tc")


class TestUnregisterOrdering:
    def test_unregister_waits_for_acknowledged_update(self):
        """An update that holds the view lock finishes (and its write
        lands) before a concurrent unregister can drop the view — no
        acknowledged-but-discarded writes."""
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        view = service.view("tc")

        entered = threading.Event()
        release = threading.Event()
        real_apply = view.apply

        def slow_apply(**kwargs):
            entered.set()
            assert release.wait(timeout=30)
            return real_apply(**kwargs)

        view.apply = slow_apply
        results = {}

        def do_update():
            results["update"] = service.update(
                "tc", inserts=[("base", (Atom("z"),))]
            )

        def do_unregister():
            results["unregister"] = service.unregister("tc")

        updater = threading.Thread(target=do_update)
        updater.start()
        assert entered.wait(timeout=30)

        # The update holds the view lock, mid-apply.  Signal the moment
        # the dropper asks for that lock, just before it blocks on it.
        view_lock = view.lock
        real_lock = view_lock._lock
        blocking = threading.Event()

        class SignallingLock:
            def acquire(self, *args, **kwargs):
                if threading.current_thread() is not updater:
                    blocking.set()
                return real_lock.acquire(*args, **kwargs)

            def release(self):
                real_lock.release()

        view_lock._lock = SignallingLock()
        dropper = threading.Thread(target=do_unregister)
        dropper.start()
        assert blocking.wait(timeout=30), "unregister never reached the view lock"
        assert "unregister" not in results
        release.set()
        updater.join(timeout=30)
        dropper.join(timeout=30)
        assert not updater.is_alive() and not dropper.is_alive()
        # The acknowledged write landed before the view was dropped.
        assert results["update"]["plus"]["base"] == {(Atom("z"),)}
        assert results["unregister"]["facts"] == 2  # base(a), base(z)
        with pytest.raises(KeyError):
            service.query("tc", "p")

    def test_update_retries_when_view_replaced_between_resolve_and_lock(self):
        """An update re-verifies the binding after acquiring the view
        lock and re-resolves when it lost a race with register: the
        write lands in the replacement."""
        service = QueryService(coalesce=1)
        service.register("tc", PROGRAM, database=_database("a"))
        original = service._resolve

        calls = {"count": 0}

        def racing_resolve(name):
            view, generation = original(name)
            if calls["count"] == 0:
                calls["count"] += 1
                # The view is replaced between the resolve and the
                # lock acquisition — the stale binding must be retried.
                service.register(name, PROGRAM, database=_database("b"))
            return view, generation

        service._resolve = racing_resolve
        service.update("tc", inserts=[("base", (Atom("z"),))])
        assert calls["count"] == 1
        assert service.query("tc", "p") == {(Atom("b"),), (Atom("z"),)}

    def test_an_inflationary_query_takes_no_lock(self):
        """The last view kind that used to read under its lock: an
        inflationary view now evaluates at write time and serves every
        read off its published snapshot — no registry lock and no view
        lock."""
        service = QueryService()
        program = PROGRAM + "q(X) :- base(X), not cut(X).\n"
        service.register(
            "inf", program, semantics="inflationary", database=_database("a")
        )
        service.update("inf", inserts=[("base", (Atom("b"),))])
        view = service.view("inf")
        acquisitions = service.metrics.counters["lock_acquisitions"]
        service._registry_lock = _PoisonedRegistryLock()
        assert service.query("inf", "p") == {(Atom("a"),), (Atom("b"),)}
        rows, undefined, stale = service.query_state("inf", "q")
        assert rows == {(Atom("a"),), (Atom("b"),)}
        assert undefined == frozenset() and not stale
        assert service.undefined("inf", "p") == frozenset()
        assert service.metrics.counters["lock_acquisitions"] == acquisitions
        assert view.metrics.counters["snapshot_reads"] == 3

    def test_unregister_raises_cleanly_after_losing_race(self):
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        service.unregister("tc")
        with pytest.raises(KeyError, match="no view registered"):
            service.unregister("tc")


class _PoisonedRegistryLock:
    """A registry lock stand-in that fails the test on any acquisition."""

    def __enter__(self):
        raise AssertionError("registry lock taken on a lock-free path")

    def __exit__(self, *exc_info):
        return False


class TestNameTable:
    """The copy-on-write name table: wait-free resolution under churn."""

    def test_snapshot_query_takes_no_registry_lock(self):
        """The whole snapshot read path — name resolution included —
        must complete without a single registry-lock acquisition."""
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        service.query("tc", "p")  # warm the cache path too
        service._registry_lock = _PoisonedRegistryLock()
        assert service.query("tc", "p") == {(Atom("a"),)}
        assert service.undefined("tc", "p") == frozenset()
        rows, undefined, stale = service.query_state("tc", "p")
        assert rows == {(Atom("a"),)} and undefined == frozenset()
        assert not stale

    def test_the_write_path_takes_no_registry_lock(self):
        """An update resolves its view and re-checks it under the view
        lock off the published table; ``view``, ``stats`` of one view
        and a bound-pattern query take no registry lock either."""
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        service._registry_lock = _PoisonedRegistryLock()
        service.update("tc", inserts=[("base", (Atom("b"),))])
        service.delete("tc", "base", Atom("a"))
        view = service.view("tc")
        assert service.stats("tc")["counters"]["update_batches"] == 2
        rows, _undefined, _stale = service.query_pattern(
            "tc", "p", (Atom("b"),)
        )
        assert rows == {(Atom("b"),)}
        assert service.metrics.counters["queries_total"] == 1
        assert service.view("tc") is view

    def test_unregister_publishes_fresh_table(self):
        """Regression: ``unregister`` must publish a *new* table, not
        mutate the published dict — a lock-free resolver iterating the
        old table must never see a half-removed entry."""
        service = QueryService()
        service.register("keep", PROGRAM, database=_database("a"))
        service.register("drop", PROGRAM, database=_database("b"))
        before = service.name_table()
        assert set(before) == {"keep", "drop"}
        service.unregister("drop")
        after = service.name_table()
        # A fresh object was published, with the entry gone ...
        assert after is not before
        assert set(after) == {"keep"}
        # ... and the pinned table is untouched: both entries complete.
        assert set(before) == {"keep", "drop"}
        view, generation = before["drop"]
        assert view.rows("p") == {(Atom("b"),)}
        assert isinstance(generation, int)

    def test_register_replacement_publishes_fresh_table(self):
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        before = service.name_table()
        old_view = before["tc"][0]
        service.register("tc", PROGRAM, database=_database("b"))
        after = service.name_table()
        assert after is not before
        assert before["tc"][0] is old_view  # pinned table unchanged
        assert after["tc"][0] is not old_view
        assert after["tc"][1] > before["tc"][1]  # generation bumped

    def test_query_retries_when_replaced_between_resolve_and_pickup(self):
        """The wait-free analogue of the _locked_view retry: a register
        that lands between the table resolution and the snapshot pickup
        must not have its replaced view's snapshot served."""
        service = QueryService()
        service.register("tc", PROGRAM, database=_database("a"))
        old_view = service.view("tc")
        real_read = old_view.read_snapshot
        fired = {"count": 0}

        def racing_read():
            snapshot = real_read()
            if fired["count"] == 0:
                fired["count"] += 1
                service.register("tc", PROGRAM, database=_database("b"))
            return snapshot

        old_view.read_snapshot = racing_read
        assert service.query("tc", "p") == {(Atom("b"),)}
        assert fired["count"] == 1

    def test_pinned_table_never_tears_under_churn(self):
        """A resolver holding the old table during register/unregister
        churn keeps a complete, immutable image: same names, same view
        identities, every entry a well-formed (view, generation) pair —
        while live resolutions stay well-formed too."""
        service = QueryService()
        for i in range(3):
            service.register(f"fixed{i}", PROGRAM, database=_database("a"))
        pinned = service.name_table()
        pinned_entries = {
            name: (view, generation)
            for name, (view, generation) in pinned.items()
        }
        stop = threading.Event()
        errors = []

        def churn():
            try:
                for round_number in range(40):
                    service.register(
                        "churn", PROGRAM, database=_database("a")
                    )
                    service.register(  # replace one of the pinned names
                        "fixed1", PROGRAM, database=_database("b")
                    )
                    service.unregister("churn")
            except Exception as exc:
                errors.append(f"churn: {type(exc).__name__}: {exc}")
            finally:
                stop.set()

        def resolve():
            try:
                while not stop.is_set():
                    # The pinned table is frozen in time.
                    assert set(pinned) == set(pinned_entries)
                    for name, (view, generation) in pinned.items():
                        assert pinned_entries[name][0] is view
                        assert pinned_entries[name][1] == generation
                    # Live tables are always complete and well-formed.
                    live = service.name_table()
                    for name, entry in live.items():
                        assert len(entry) == 2
                        view, generation = entry
                        assert isinstance(generation, int)
                        assert view.rows("p") is not None
                    # And the service resolves through them cleanly.
                    try:
                        service.query("fixed0", "p")
                        service.query("churn", "p")
                    except KeyError:
                        pass  # mid unregister/register cycle
            except Exception as exc:
                errors.append(f"resolver: {type(exc).__name__}: {exc}")

        resolver = threading.Thread(target=resolve)
        churner = threading.Thread(target=churn)
        resolver.start()
        churner.start()
        churner.join(timeout=60)
        resolver.join(timeout=60)
        assert not churner.is_alive() and not resolver.is_alive()
        assert not errors, errors
        # The pinned table still serves its world: the replaced
        # registration's *old* view is reachable and consistent.
        assert pinned["fixed1"][0].rows("p") == {(Atom("a"),)}
        assert service.query("fixed1", "p") == {(Atom("b"),)}


TC_PROGRAM = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
)


def _chain_database():
    database = Database()
    database.declare("edge")
    database.add("edge", Atom("a"), Atom("b"))
    database.add("edge", Atom("b"), Atom("c"))
    return database


class TestSnapshotReadsUnderChurn:
    def test_pinned_snapshot_stays_consistent_under_churn(self):
        """A reader pinned to an old snapshot — and a reader following
        the live snapshot path — must only ever observe *complete*
        model versions while updates and register/unregister churn run:
        no torn mid-batch states, generations monotone per view, and
        the pinned snapshot bit-identical forever."""

        def atoms(*pairs):
            return frozenset(
                (Atom(x), Atom(y)) for x, y in pairs
            )

        # The only two consistent models the churn below can produce:
        # the chain closure, and the closure with the c→d→e extension
        # (always inserted and deleted as ONE batch, so any other
        # answer is a torn read).
        without = atoms(("a", "b"), ("b", "c"), ("a", "c"))
        with_extension = without | atoms(
            ("c", "d"), ("d", "e"), ("c", "e"),
            ("b", "d"), ("b", "e"), ("a", "d"), ("a", "e"),
        )
        legal = (without, with_extension)
        extension = [
            ("edge", (Atom("c"), Atom("d"))),
            ("edge", (Atom("d"), Atom("e"))),
        ]

        service = QueryService()
        service.register("tc", TC_PROGRAM, database=_chain_database())
        pinned = service.view("tc").read_snapshot()
        assert pinned is not None
        pinned_generation = pinned.generation
        assert pinned.rows("tc") == without

        stop = threading.Event()
        errors = []

        def churn():
            try:
                for round_number in range(30):
                    service.update("tc", inserts=extension)
                    service.update("tc", deletes=extension)
                    if round_number % 10 == 5:
                        # Replace the registration outright ...
                        service.register(
                            "tc", TC_PROGRAM, database=_chain_database()
                        )
                    if round_number % 10 == 9:
                        # ... and cycle it through a full unregister.
                        service.unregister("tc")
                        service.register(
                            "tc", TC_PROGRAM, database=_chain_database()
                        )
            except Exception as exc:
                errors.append(f"churn: {type(exc).__name__}: {exc}")
            finally:
                stop.set()

        def read():
            # Keyed by the view itself, which keeps it alive: the next
            # registration could reuse a collected view's ``id()``.
            last_generation = {}
            try:
                while not stop.is_set():
                    # The pinned snapshot is immutable: same version,
                    # same rows, no matter what the writers do.
                    assert pinned.generation == pinned_generation
                    assert pinned.rows("tc") == without
                    try:
                        view = service.view("tc")
                    except KeyError:
                        continue  # mid unregister/register cycle
                    snapshot = view.read_snapshot()
                    if snapshot is not None:
                        rows = snapshot.rows("tc")
                        assert rows in legal, f"torn snapshot read: {rows}"
                        previous = last_generation.get(view)
                        if previous is not None:
                            assert snapshot.generation >= previous
                        last_generation[view] = snapshot.generation
                    try:
                        rows = service.query("tc", "tc")
                    except KeyError:
                        continue
                    assert rows in legal, f"torn service read: {rows}"
            except Exception as exc:
                errors.append(f"reader: {type(exc).__name__}: {exc}")

        reader = threading.Thread(target=read)
        churner = threading.Thread(target=churn)
        reader.start()
        churner.start()
        churner.join(timeout=60)
        reader.join(timeout=60)
        assert not churner.is_alive() and not reader.is_alive()
        assert not errors, errors
        # The pinned snapshot survived the whole run unchanged.
        assert pinned.generation == pinned_generation
        assert pinned.rows("tc") == without


class TestRollupMonotoneUnderChurn:
    def test_rollup_never_decreases_while_views_churn(self):
        """Snapshots taken while views register/update/unregister must
        report a rollup in which no counter ever decreases."""
        service = QueryService()
        service.register("stable", PROGRAM, database=_database("a"))
        stop = threading.Event()
        errors = []

        def churn():
            try:
                for round_number in range(30):
                    service.register(
                        "churn", PROGRAM, database=_database("a")
                    )
                    service.update(
                        "churn",
                        inserts=[("base", (Atom(f"x{round_number}"),))],
                    )
                    service.query("churn", "p")
                    service.query("stable", "p")
                    service.unregister("churn")
            except Exception as exc:
                errors.append(f"churn: {type(exc).__name__}: {exc}")
            finally:
                stop.set()

        churner = threading.Thread(target=churn)
        churner.start()
        previous = {}
        try:
            while not stop.is_set():
                rollup = service.metrics_snapshot()["rollup"]
                for counter, value in previous.items():
                    assert rollup.get(counter, 0) >= value, (
                        f"rollup[{counter}] decreased: "
                        f"{value} -> {rollup.get(counter, 0)}"
                    )
                previous = rollup
        finally:
            churner.join(timeout=60)
        assert not churner.is_alive()
        assert not errors, errors
        # One final consistency check: rollup == retired + live views.
        snapshot = service.metrics_snapshot()
        recomputed = dict(snapshot["retired"])
        for stats in snapshot["views"].values():
            for counter, value in stats["counters"].items():
                recomputed[counter] = recomputed.get(counter, 0) + value
        assert snapshot["rollup"] == recomputed


class TestNameTableChurnCounters:
    """The COW republish cost is O(churn · views), and the counters
    that make that bound observable are themselves exact: every
    register/unregister republishes the table exactly once, copying
    exactly the post-mutation table size in cells."""

    def test_each_mutation_republishes_exactly_once(self):
        service = QueryService()
        assert service.name_table_republishes == 0
        assert service.name_table_copied_cells == 0

        expected_cells = 0
        for index in range(4):
            service.register(f"v{index}", PROGRAM, database=_database("a"))
            expected_cells += index + 1  # post-register table size
        assert service.name_table_republishes == 4
        assert service.name_table_copied_cells == expected_cells

        service.unregister("v0")
        expected_cells += 3  # post-unregister table size
        assert service.name_table_republishes == 5
        assert service.name_table_copied_cells == expected_cells

        # Replacement of an existing name is one churn event too.
        service.register("v1", PROGRAM, database=_database("b"))
        expected_cells += 3
        assert service.name_table_republishes == 6
        assert service.name_table_copied_cells == expected_cells

        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["name_table_republishes"] == 6
        assert gauges["name_table_copied_cells"] == expected_cells

    def test_copied_cells_linear_in_churn_not_quadratic(self):
        """N re-registrations against V resident views copy exactly
        N·V cells — the bound that distinguishes one-republish-per-
        operation from accidental republish-per-view O(N²) blowup."""
        resident = 5
        service = QueryService()
        for index in range(resident):
            service.register(
                f"v{index}", PROGRAM, database=_database("a")
            )
        base_republishes = service.name_table_republishes
        base_cells = service.name_table_copied_cells

        churn = 20
        for _ in range(churn):
            service.register("v0", PROGRAM, database=_database("b"))

        assert service.name_table_republishes - base_republishes == churn
        copied = service.name_table_copied_cells - base_cells
        assert copied == churn * resident
