"""One reply, three front doors, byte for byte.

The same request lines go through the in-process ``serve_stream`` (what
``repro serve`` runs on stdin), the unix socket (one buffered send per
reply) and the framed cluster front door (worker -> router -> frame),
and every reply must be the same lines in the same order: a full read,
a bound-pattern read and an annotated read with its ``explain`` lines,
before and after a write — the second round is served from memos the
first one left on the snapshots, carried across the write by delta.
"""

import asyncio
import os
import shutil
import socket
import tempfile
import threading

import pytest

from repro.service import QueryService, serve_stream, serve_unix_socket
from repro.service.cluster import ClusterClient, ClusterRouter, cluster
from repro.service.server import _handle_line

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
WIN = "win(X) :- move(X, Y), not win(Y)."
EDGES = " ".join(f"edge(n{i:02}, n{i + 1:02})." for i in range(30))

SETUP = [
    f"register v stratified {TC} {EDGES}",
    f"register w stratified --semiring=naturals {TC} edge(a, b). edge(b, c).",
    f"register g valid {WIN} move(a, b). move(b, a). move(b, c). move(c, d).",
]
READS = [
    "query v tc",
    "query v tc(n03, _)",
    "query v tc(_, n29)",
    "query v edge(n03, _)",
    "query w tc",
    "query g win",
    "query g win(a)",
    "query v nothing",
]
WRITES = [
    "+v edge(n30, n31)",
    "-v edge(n10, n11)",
    "+w edge(a, c) @ 2",
    "+g move(d, e)",
]
SCRIPT = SETUP + READS + WRITES + READS + READS


def _split(lines):
    """Reply lines grouped per request (a reply ends at ok/error)."""
    replies, current = [], []
    for line in lines:
        current.append(line)
        if line == "ok" or line.startswith(("ok ", "error")):
            replies.append(current)
            current = []
    assert not current, "a reply without a terminator"
    return replies


def over_stream():
    service = QueryService()
    try:
        lines = []
        serve_stream(service, SCRIPT, lines.append)
        return _split(lines)
    finally:
        service.close()


def over_socket(directory):
    path = os.path.join(directory, "line.sock")
    service = QueryService()
    server = threading.Thread(
        target=serve_unix_socket,
        args=(service, path),
        kwargs={"max_connections": 1},
    )
    server.start()
    try:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(30)
        with client:
            # listen() follows bind(): a connect can still be refused.
            for _ in range(2000):
                try:
                    client.connect(path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    threading.Event().wait(0.005)
            client.sendall(("\n".join(SCRIPT) + "\nquit\n").encode("utf-8"))
            received = b"".join(iter(lambda: client.recv(1 << 16), b""))
    finally:
        server.join(timeout=10)
        service.close()
    assert not server.is_alive()
    text = received.decode("utf-8")
    assert text.endswith("ok bye\n")
    return _split(text.split("\n")[:-1])[:-1]


def over_cluster(directory):
    path = os.path.join(directory, "fd")
    with cluster(path, shards=2):
        with ClusterClient(path, timeout=60.0) as client:
            return [client.request(line) for line in SCRIPT]


@pytest.fixture(scope="module")
def replies():
    directory = tempfile.mkdtemp(prefix="repro-pid-")
    try:
        return {
            "stream": over_stream(),
            "socket": over_socket(directory),
            "cluster": over_cluster(directory),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _reads(door):
    """The three read rounds of one front door: before the writes,
    right after them, and once more (memos warm)."""
    offset = len(SETUP)
    first = door[offset : offset + len(READS)]
    offset += len(READS) + len(WRITES)
    second = door[offset : offset + len(READS)]
    third = door[offset + len(READS) :]
    return first, second, third


def test_every_request_got_exactly_one_reply(replies):
    for door, answered in replies.items():
        assert len(answered) == len(SCRIPT), door
        for line, reply in zip(SCRIPT, answered):
            assert not reply[-1].startswith("error"), (door, line, reply[-1])


def test_read_replies_are_identical_across_front_doors(replies):
    stream = _reads(replies["stream"])
    for door in ("socket", "cluster"):
        for round_index, (ours, theirs) in enumerate(
            zip(stream, _reads(replies[door]))
        ):
            for line, expected, got in zip(READS, ours, theirs):
                assert got == expected, (door, round_index, line)


def test_the_replies_say_what_they_should(replies):
    first, second, third = _reads(replies["stream"])
    assert second == third, "a repeated read repeats its reply"
    before, after = dict(zip(READS, first)), dict(zip(READS, second))
    full = before["query v tc"]
    assert full[-1] == "ok 465 rows" and len(full) == 466
    assert full[:-1] == sorted(full[:-1]), "row lines arrive sorted"
    assert before["query v tc(n03, _)"] == [
        *(f"row tc(n03, n{j:02})" for j in range(4, 31)),
        "ok 27 rows",
    ]
    assert before["query v edge(n03, _)"] == ["row edge(n03, n04)", "ok 1 rows"]
    assert before["query v nothing"] == ["ok 0 rows"]
    assert before["query w tc"] == [
        "row tc(a, b)",
        "row tc(a, c)",
        "row tc(b, c)",
        "explain tc(a, b) @ 1",
        "explain tc(a, c) @ 1",
        "explain tc(b, c) @ 1",
        "ok 3 rows",
    ]
    assert before["query g win"] == [
        "row win(c)",
        "undef win(a)",
        "undef win(b)",
        "ok 1 rows",
    ]
    assert before["query g win(a)"] == ["undef win(a)", "ok 0 rows"]
    # After: the chain is cut at n10 and grown by n31; a second
    # derivation of tc(a, c) weighs 2; d can now move, so c loses.
    assert after["query v tc"][-1] == f"ok {11 * 10 // 2 + 21 * 20 // 2} rows"
    assert after["query v tc(n03, _)"] == [
        *(f"row tc(n03, n{j:02})" for j in range(4, 11)),
        "ok 7 rows",
    ]
    assert after["query v tc(_, n29)"][-1] == "ok 18 rows"
    assert "explain tc(a, c) @ 3" in after["query w tc"]
    assert after["query g win"] == [
        "row win(b)",
        "row win(d)",
        "ok 2 rows",
    ]


# Malformed requests the router answers itself, without a worker or a
# fan-out: the same reply ``serve`` gives (one grammar parses both).
MALFORMED = [
    "query",
    "register v stratified",
    "+v",
    "-v",
    "unregister",
    "query v a b",
    "metrics --format=xml",
    "register v bogus p(a).",
    "register v stratified --semiring= p(a).",
    "frobnicate",
]


@pytest.mark.parametrize("line", MALFORMED)
def test_a_malformed_request_gets_the_usage_line_serve_gives(line, tmp_path):
    router = ClusterRouter(str(tmp_path / "fd"), shards=1)
    served = _handle_line(QueryService(), line)
    assert len(served) == 1 and served[0].startswith("error ")
    assert asyncio.run(router._dispatch(line)).decode().split("\n") == served
    assert router.counters["forwarded_total"] == 0
    assert router.counters["fanouts_total"] == 0
