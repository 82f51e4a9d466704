"""The query service facade and its line protocol."""

import json
import logging
import socket
import threading
import time

import pytest

from repro.datalog.database import Database
from repro.relations import Atom
from repro.service import QueryService, parse_fact, serve_stream, serve_unix_socket
from repro.service.server import DRAIN_SECONDS
from repro.service.durability.wal import WriteAheadLog

a, b, c, d = (Atom(x) for x in "abcd")

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
edge(b, c).
"""

WIN = """
win(X) :- move(X, Y), not win(Y).
move(a, b).
move(b, c).
move(d, d).
"""


def run_protocol(service, script):
    replies = []
    serve_stream(service, script.splitlines(), replies.append)
    return replies


class TestParseFact:
    def test_accepts_with_and_without_dot(self):
        assert parse_fact("edge(a, b)") == ("edge", (a, b))
        assert parse_fact("edge(a, b).") == ("edge", (a, b))

    def test_rejects_rules_and_nonground(self):
        with pytest.raises(ValueError):
            parse_fact("tc(X, Y) :- edge(X, Y)")
        with pytest.raises(Exception):
            parse_fact("edge(X, b)")

    @pytest.mark.parametrize("text", ["edge(f(a), b)", "e([a, f(b)])"])
    def test_rejects_function_terms(self, text):
        with pytest.raises(ValueError, match="expected a single ground fact"):
            parse_fact(text)


class TestQueryService:
    def test_register_query_update(self):
        service = QueryService()
        info = service.register("tc", TC)
        assert info["mode"] == "incremental" and info["stratified"]
        assert service.query("tc", "tc") == {(a, b), (b, c), (a, c)}
        service.insert("tc", "edge", c, d)
        assert (a, d) in service.query("tc", "tc")
        service.delete("tc", "edge", a, b)
        assert service.query("tc", "tc") == {(b, c), (c, d), (b, d)}

    def test_cache_hits_and_invalidation(self):
        service = QueryService()
        service.register("tc", TC)
        service.query("tc", "tc")
        service.query("tc", "tc")
        stats = service.stats("tc")
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["cache_misses"] == 1
        service.insert("tc", "edge", c, d)  # invalidates the scope
        service.query("tc", "tc")
        assert service.stats("tc")["counters"]["cache_misses"] == 2

    def test_unknown_view_raises(self):
        service = QueryService()
        with pytest.raises(KeyError):
            service.query("nope", "p")

    def test_service_wide_stats(self):
        service = QueryService()
        service.register("tc", TC)
        service.register("win", WIN, semantics="valid")
        service.register("slow", WIN, semantics="inflationary")
        stats = service.stats()
        assert set(stats["views"]) == {"tc", "win", "slow"}
        assert stats["views"]["win"]["mode"] == "incremental"
        assert stats["views"]["win"]["maintenance"] == "alternating"
        assert stats["views"]["win"]["alternation_levels"] >= 2
        assert stats["views"]["slow"]["mode"] == "recompute"
        assert stats["views"]["slow"]["alternation_levels"] == 0
        assert "cache" in stats


class TestLineProtocol:
    def test_register_query_update_stats_roundtrip(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text(TC)
        service = QueryService()
        replies = run_protocol(
            service,
            f"""
            register tc stratified {program}

            # comments and blank lines are skipped
            query tc tc
            +tc edge(c, d)
            query tc tc
            -tc edge(a, b)
            query tc tc
            stats tc
            quit
            """,
        )
        assert replies[0].startswith("ok {")
        first_query = replies[1:5]
        assert first_query == [
            "row tc(a, b)",
            "row tc(a, c)",
            "row tc(b, c)",
            "ok 3 rows",
        ]
        assert replies[5].startswith("ok {")  # the insert summary
        assert "row tc(a, d)" in replies
        final_rows = [r for r in replies if r == "row tc(b, d)"]
        assert final_rows  # closure after the deletion
        stats_line = next(r for r in replies if '"counters"' in r)
        payload = json.loads(stats_line[len("ok ") :])
        assert payload["mode"] == "incremental"
        assert payload["counters"]["update_batches"] == 2
        assert replies[-1] == "ok bye"

    def test_inline_register_and_views_listing(self):
        service = QueryService()
        replies = run_protocol(
            service,
            'register tc stratified tc(X, Y) :- edge(X, Y). edge(a, b).\nviews\n',
        )
        assert replies[0].startswith("ok {")
        assert replies[1] == 'ok ["tc"]'

    @pytest.mark.parametrize(
        "semantics, mode, recomputes",
        [("valid", "incremental", 0), ("inflationary", "recompute", 1)],
    )
    def test_nonstratified_fallback_visible_in_metrics(
        self, semantics, mode, recomputes
    ):
        service = QueryService()
        replies = run_protocol(
            service,
            f"register win {semantics} {' '.join(WIN.split())}\n"
            "query win win\n"
            "-win move(a, b)\n"
            "query win win\n"
            "stats win\n",
        )
        info = json.loads(replies[0][len("ok ") :])
        assert info["mode"] == mode and not info["stratified"]
        # The d→d loop: undefined under valid, a win once inflated.
        assert ("undef win(d)" in replies) == (semantics == "valid")
        stats_line = replies[-1]
        payload = json.loads(stats_line[len("ok ") :])
        assert payload["counters"]["recompute_batches"] == recomputes
        assert not any("@" in line for line in replies)

    def test_errors_do_not_kill_the_stream(self):
        service = QueryService()
        replies = run_protocol(
            service,
            "query missing p\n"
            "frobnicate\n"
            "register tc bogus-semantics tc(X) :- e(X).\n"
            "+tc not a fact at all\n"
            "register tc stratified tc(X) :- e(X). e(a).\n"
            "query tc tc\n",
        )
        assert replies[0].startswith("error KeyError")
        assert replies[1] == "error unknown command 'frobnicate'"
        assert replies[2].startswith("error unknown semantics")
        assert replies[3].startswith("error")
        assert replies[-1] == "ok 1 rows"
        assert "row tc(a)" in replies

    def test_function_terms_in_a_write_answer_a_clean_error(self, caplog):
        service = QueryService()
        with caplog.at_level(logging.WARNING, logger="repro.service.server"):
            replies = run_protocol(
                service,
                "register g stratified tc(X, Y) :- edge(X, Y). "
                "tc(X, Z) :- edge(X, Y), tc(Y, Z). edge(a, b). edge(b, c).\n"
                "+g edge(f(a), b)\n"
                "+g e([a, f(b)])\n"
                "query g tc\n",
            )
        assert replies[1:3] == [
            "error ValueError: expected a single ground fact, got 'edge(f(a), b).'",
            "error ValueError: expected a single ground fact, got 'e([a, f(b)]).'",
        ]
        assert replies[-1] == "ok 3 rows"
        assert not any(record.exc_info for record in caplog.records)

    def test_a_journaled_function_term_is_skipped_on_replay(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off")
        log.append({"op": "register", "view": "g", "source": TC})
        for fact in ("edge(c, d)", "edge(f(a), b)", "e([a, f(b)])", "edge(d, e)"):
            log.append({"op": "update", "view": "g", "inserts": [fact], "deletes": []})
        log.close()
        service = QueryService(data_dir=str(tmp_path), fsync="off")
        try:
            report = service.last_recovery
            assert (report.replayed_records, report.skipped_records) == (3, 2)
            assert all(
                "ValueError: expected a single ground fact" in error
                for error in report.errors
            )
            assert (a, Atom("e")) in service.query("g", "tc")
        finally:
            service.close()

    def test_usage_errors(self):
        service = QueryService()
        replies = run_protocol(
            service, "register tc stratified\nquery tc\n+tc\nunregister\n"
        )
        assert all(reply.startswith("error usage:") for reply in replies)

    def test_unregister_verb(self):
        service = QueryService()
        replies = run_protocol(
            service,
            "register tc stratified tc(X) :- e(X). e(a).\n"
            "unregister tc\n"
            "views\n"
            "query tc tc\n"
            "unregister tc\n",
        )
        info = json.loads(replies[1][len("ok ") :])
        assert info["name"] == "tc" and info["facts"] == 1
        assert replies[2] == "ok []"
        assert replies[3].startswith("error KeyError")
        assert replies[4].startswith("error KeyError")

    def test_metrics_verb_snapshot(self):
        service = QueryService()
        replies = run_protocol(
            service,
            "register tc stratified tc(X) :- e(X). e(a).\n"
            "query tc tc\n"
            "query tc tc\n"
            "+tc e(b)\n"
            "metrics\n",
        )
        payload = json.loads(replies[-1][len("ok ") :])
        assert payload["counters"]["requests_total"] == 5
        assert payload["counters"]["queries_total"] == 2
        assert payload["counters"]["updates_total"] == 1
        assert payload["gauges"]["views_registered"] == 1
        assert payload["gauges"]["stale_views"] == 0
        # One write path, one read path: no mode switches to report.
        assert not {"lock_mode", "read_mode", "maintenance"} & set(payload)
        # Queries are lock-free (served from the published snapshot);
        # only the update batch takes the view lock.
        assert payload["counters"]["lock_acquisitions"] == 1
        assert payload["rollup"]["snapshot_reads"] == 2
        # Registration publishes once, the update batch republishes.
        assert payload["rollup"]["snapshot_swaps"] == 2
        assert payload["gauges"]["snapshot_age"]["tc"] >= 0
        assert payload["locks"]["wait"]["count"] == payload["counters"][
            "lock_acquisitions"
        ]
        # The rollup equals retired + the sum of the live view counters.
        for counter, value in payload["rollup"].items():
            live = sum(
                stats["counters"].get(counter, 0)
                for stats in payload["views"].values()
            )
            assert value == payload["retired"].get(counter, 0) + live

    def test_stale_flag_surfaces_on_query_reply(self):
        from repro.robustness import FaultInjector, FaultRule, inject_faults

        service = QueryService()
        service.register("tc", TC)
        plan = [
            FaultRule("incremental.apply", times=None),
            FaultRule("incremental.initialize", times=None),
        ]
        with inject_faults(FaultInjector(plan)):
            replies = run_protocol(
                service, "+tc edge(c, d)\nquery tc tc\n"
            )
        assert replies[0].startswith("error ")
        assert replies[-1].endswith("rows stale")


class TestUnixSocket:
    def test_round_trip_over_socket(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        service = QueryService()
        service.register("tc", TC)
        server = threading.Thread(
            target=serve_unix_socket,
            args=(service, path),
            kwargs={"max_connections": 1},
        )
        server.start()
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            for _ in range(100):
                try:
                    client.connect(path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    import time

                    time.sleep(0.01)
            with client:
                client.sendall(b"query tc tc\nquit\n")
                reader = client.makefile("r")
                lines = [reader.readline().strip() for _ in range(5)]
            assert lines[:3] == [
                "row tc(a, b)",
                "row tc(a, c)",
                "row tc(b, c)",
            ]
            assert lines[3] == "ok 3 rows"
            assert lines[4] == "ok bye"
        finally:
            server.join(timeout=5)
        assert not server.is_alive()


    def test_a_stop_drains_within_one_budget(self, tmp_path):
        """A handler blocked in ``sendall`` to a client that never reads
        gets DRAIN_SECONDS in all once the server is stopped — not a
        join per handler that outlasts a cluster router's 5 s wait."""
        path = str(tmp_path / "repro.sock")
        service = QueryService()
        database = Database()
        for index in range(20_000):  # a ~4 MB reply: more than any buffer
            database.add("e", Atom(f"{'x' * 200}{index}"))
        service.register("v", "p(X) :- e(X).", database=database)
        answered = threading.Event()
        query_lines = service.query_lines

        def answer(*args):
            try:
                return query_lines(*args)
            finally:
                answered.set()

        service.query_lines = answer
        stop = threading.Event()
        server = threading.Thread(
            target=serve_unix_socket,
            args=(service, path),
            kwargs={"stop_event": stop},
        )
        server.start()
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            for _ in range(2000):
                try:
                    client.connect(path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    threading.Event().wait(0.005)
            client.sendall(b"query v p\n")  # and never read the reply
            assert answered.wait(timeout=30)
            started = time.monotonic()
            stop.set()
            server.join(timeout=30)
            elapsed = time.monotonic() - started
        finally:
            client.close()
            service.close()
        assert not server.is_alive()
        assert DRAIN_SECONDS <= elapsed < DRAIN_SECONDS + 1.5, elapsed


class TestCloseIdempotent:
    """Closing twice, or a half-constructed service, is harmless."""

    def test_close_twice_without_compactor(self):
        service = QueryService()
        service.close()
        service.close()

    def test_close_after_failed_construction(self):
        # A service whose __init__ died before its attributes existed
        # must still close cleanly.
        service = QueryService.__new__(QueryService)
        service.close()

    def test_service_still_answers_after_close(self):
        service = QueryService()
        service.register("tc", TC)
        service.close()
        rows = {str(row) for row in service.query("tc", "tc")}
        assert "(a, c)" in rows
        service.close()
