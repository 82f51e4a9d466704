"""What one write costs the layers around its engine pass, in counts.

No clocks here: a write's time is `benchmarks/bench_p16_write_path.py`'s
business.  What is pinned is the work every write does whatever the box:

* an uncontended write builds no ``threading.Event`` or ``Condition``
  (a ticket's event is made only when a second writer waits on it);
* a flat fact (``edge(c3n1, c3n2)``, strings, integers, booleans, an
  optional ``.`` and ``@ annotation``) is read by one regex match and
  never reaches the grammar's tokenizer or parser
  (``repro.datalog.facts``);
* the histogram observations and the service-lock holds of one write;
* the replies, the log records and the fingerprints a script of every
  fact shape produces, and what recovery rebuilds from that log.
"""

import threading

import pytest

from repro.datalog import facts as facts_module
from repro.relations import Atom
from repro.service import QueryService, serve_stream
from repro.service import metrics as metrics_module
from repro.service.dbsp.queue import Ticket
from repro.service.durability import wal as wal_module

TC = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."


def serve(service, lines):
    replies = []
    serve_stream(service, lines, replies.append)
    return replies


class _Counting:
    """A stand-in for a ``threading`` factory that counts its calls and
    sets ``called`` once it has made something."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = 0
        self.called = threading.Event()

    def __call__(self, *args, **kwargs):
        self.calls += 1
        made = self.factory(*args, **kwargs)
        self.called.set()
        return made


class _CountingLock:
    """A mutex that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.holds = 0

    def __enter__(self):
        self.holds += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestTickets:
    def test_an_uncontended_write_builds_no_event_or_condition(self, monkeypatch):
        service = QueryService()
        assert serve(service, [f"register g stratified {TC}"])[0].startswith("ok")
        events = _Counting(threading.Event)
        conditions = _Counting(threading.Condition)
        monkeypatch.setattr(threading, "Event", events)
        monkeypatch.setattr(threading, "Condition", conditions)
        replies = serve(
            service, ["+g e(a, b)", "+g e(b, c)", "-g e(a, b).", "+g e(a, b)"]
        )
        assert all(reply.startswith("ok {") for reply in replies)
        assert (events.calls, conditions.calls) == (0, 0)

    def test_a_writer_that_waits_makes_the_one_event(self, monkeypatch):
        ticket = Ticket([("e", ("a", "b"))], [])
        outcome = []
        # Built before counting starts: a thread makes events of its own.
        waiter = threading.Thread(target=lambda: outcome.append(ticket.outcome(30)))
        events = _Counting(threading.Event)
        monkeypatch.setattr(threading, "Event", events)
        waiter.start()
        # The waiter makes its event under the settle lock, so once it
        # is made, completing the ticket wakes that event.
        assert events.called.wait(30)
        ticket.complete({"mode": "incremental"})
        waiter.join()
        assert outcome == [{"mode": "incremental"}]
        assert events.calls == 1
        # A settled ticket answers at once and builds nothing more.
        assert ticket.outcome(0) == {"mode": "incremental"}
        assert events.calls == 1


class TestFlatFacts:
    FLAT = [
        "+g e(c3n1, c3n2)",
        "+g e(a,b).",
        "+g e( 'new york' , -7 ) .",
        "+g e(true, 'a, ) @ . b')",
        "-g e(c3n1, c3n2).",
    ]

    def test_a_flat_fact_never_reaches_the_grammar(self, monkeypatch):
        service = QueryService()
        serve(service, [f"register g stratified {TC}"])
        serve(service, [f"register n stratified --semiring=tropical {TC}"])

        def refuse(*args, **kwargs):
            raise AssertionError("a flat fact reached the grammar")

        monkeypatch.setattr(facts_module, "_tokenize", refuse)
        monkeypatch.setattr(facts_module, "_Parser", refuse)
        replies = serve(service, self.FLAT + ["+n e(a, b) @ 3", "+n e(b, c) @ 1"])
        assert all(reply.startswith("ok {") for reply in replies), replies
        assert service.query("g", "e") == {
            (Atom("a"), Atom("b")),
            ("new york", -7),
            (True, "a, ) @ . b"),
        }

    def test_any_other_fact_takes_the_grammar(self, monkeypatch):
        service = QueryService()
        serve(service, [f"register g stratified {TC}"])
        tokenize = _Counting(facts_module._tokenize)
        monkeypatch.setattr(facts_module, "_tokenize", tokenize)
        replies = serve(service, ["+g e([a, 1], b)", "+g e(a,\tb)", "+g e(f(a), b)"])
        assert replies[0].startswith("ok {") and replies[1].startswith("ok {")
        assert replies[2].startswith("error ValueError: expected a single ground fact")
        assert tokenize.calls == 3


class TestPerWriteCounts:
    """One write's histogram observations and service-lock holds.

    A write to a recursive view files five phases (``maintain``,
    ``snapshot``, ``overdelete``, ``rederive``, ``insert_close``) into
    the view's histograms and the service's, and the view lock's wait
    and hold: 12 observations.  The service lock is held to count the
    request in and out, ``updates_total``, the pass's five phase
    timings (one filing), the view-lock times and the ``wal_appends``
    event: 6 holds.
    """

    @pytest.mark.parametrize(
        "rules, facts, observations",
        [
            (TC, ["e(a, b)", "e(b, c)", "e(c, d)"], 12),
            ("p(X) :- q(X).", ["q(a)", "q(b)", "q(c)"], 6),
        ],
    )
    def test_a_write_files_what_it_always_filed_in_six_holds(
        self, tmp_path, monkeypatch, rules, facts, observations
    ):
        service = QueryService(data_dir=str(tmp_path), fsync="off")
        try:
            serve(service, [f"register v stratified {rules}"])
            filed = _Counting(metrics_module.Histogram.observe)
            monkeypatch.setattr(
                metrics_module.Histogram,
                "observe",
                lambda histogram, value: filed(histogram, value),
            )
            lock = service.metrics._lock = _CountingLock()
            for fact in facts:
                filed.calls = lock.holds = 0
                [reply] = serve(service, [f"+v {fact}"])
                assert reply.startswith("ok {")
                assert (filed.calls, lock.holds) == (observations, 6)
        finally:
            service.close()


#: Every fact shape the wire takes, through one bare and one annotated
#: view; the arity error leaves no record.
SHAPES = [
    "register s stratified p(X) :- q(X). r(a, b).",
    "+s q(c3n1)",
    "+s q('new york')",
    "+s q('a, ) @ . b')",
    "+s q(-7)",
    "+s q(true)",
    "+s q(false)",
    "+s q([a, [-1, 'x y']])",
    "+s r(a, 'b c') .",
    "-s q(-7).",
    "+s q( c3n2 ,'it\\'s' ).",
    f"register t stratified --semiring=tropical {TC}",
    "+t e(a, b) @ 3",
    "+t e(b, 'c d') @ 1",
    "+t e('x, y', a) @ 2",
    "-t e(a, b)",
    "+t e(a, b)",
    "query s p",
    "query t tc",
]

#: What :data:`SHAPES` has always produced, byte for byte.
SHAPE_REPLIES = [
    'ok {"components": 2, "edb": ["q"], "idb": ["p"], "mode": "incremental", '
    '"name": "s", "recursive_components": 0, "rules": 1, "seed_facts": 1, '
    '"semantics": "stratified", "strata": 1, "stratified": true}',
    *['ok {"batches": 1, "delta_minus": 0, "delta_plus": 2, "mode": "incremental"}'] * 7,
    'ok {"batches": 1, "delta_minus": 0, "delta_plus": 1, "mode": "incremental"}',
    'ok {"batches": 1, "delta_minus": 2, "delta_plus": 0, "mode": "incremental"}',
    "error ValueError: predicate q has arity 1, got fact with 2 arguments",
    'ok {"components": 2, "edb": ["e"], "idb": ["tc"], "mode": "incremental", '
    '"name": "t", "recursive_components": 1, "rules": 2, "seed_facts": 0, '
    '"semantics": "stratified", "semiring": "tropical", "strata": 1, "stratified": true}',
    'ok {"batches": 1, "delta_minus": 0, "delta_plus": 2, "mode": "incremental"}',
    'ok {"batches": 1, "delta_minus": 0, "delta_plus": 3, "mode": "incremental"}',
    'ok {"batches": 1, "delta_minus": 0, "delta_plus": 4, "mode": "incremental"}',
    'ok {"batches": 1, "delta_minus": 5, "delta_plus": 0, "mode": "incremental"}',
    'ok {"batches": 1, "delta_minus": 0, "delta_plus": 5, "mode": "incremental"}',
    "row p('a, ) @ . b')",
    "row p('new york')",
    "row p([a, [-1, 'x y']])",
    "row p(c3n1)",
    "row p(false)",
    "row p(true)",
    "ok 6 rows",
    "row tc('x, y', 'c d')",
    "row tc('x, y', a)",
    "row tc('x, y', b)",
    "row tc(a, 'c d')",
    "row tc(a, b)",
    "row tc(b, 'c d')",
    "explain tc('x, y', 'c d') @ 3",
    "explain tc('x, y', a) @ 2",
    "explain tc('x, y', b) @ 2",
    "explain tc(a, 'c d') @ 1",
    "explain tc(a, b) @ 0",
    "explain tc(b, 'c d') @ 1",
    "ok 6 rows",
]

SHAPE_RECORDS = [
    '{"lsn":1,"op":"register","semantics":"stratified",'
    '"source":"p(X) :- q(X). r(a, b).","view":"s"}',
    '{"deletes":[],"inserts":["q(c3n1)"],"lsn":2,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["q(\'new york\')"],"lsn":3,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["q(\'a, ) @ . b\')"],"lsn":4,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["q(-7)"],"lsn":5,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["q(true)"],"lsn":6,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["q(false)"],"lsn":7,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["q([a, [-1, \'x y\']])"],"lsn":8,"op":"update","view":"s"}',
    '{"deletes":[],"inserts":["r(a, \'b c\')"],"lsn":9,"op":"update","view":"s"}',
    '{"deletes":["q(-7)"],"inserts":[],"lsn":10,"op":"update","view":"s"}',
    '{"lsn":11,"op":"register","semantics":"stratified","semiring":"tropical",'
    '"source":"tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).","view":"t"}',
    '{"deletes":[],"inserts":["e(a, b) @ 3"],"lsn":12,"op":"update","view":"t"}',
    '{"deletes":[],"inserts":["e(b, \'c d\') @ 1"],"lsn":13,"op":"update","view":"t"}',
    '{"deletes":[],"inserts":["e(\'x, y\', a) @ 2"],"lsn":14,"op":"update","view":"t"}',
    '{"deletes":["e(a, b)"],"inserts":[],"lsn":15,"op":"update","view":"t"}',
    '{"deletes":[],"inserts":["e(a, b)"],"lsn":16,"op":"update","view":"t"}',
]

#: The live databases after :data:`SHAPES`, and what recovery rebuilds
#: from their log: the same databases.
LIVE = {
    "s": "b6e8cd23bb89825a6f382cc93f356a67669c8974bb6cd8088d200940a36fc1ec",
    "t": "7f691f89b9fb1bfd156b50f906cf972c75bde7e3213a8021b76e9b1cacccabeb",
}
RECOVERED = {
    "s": LIVE["s"],
    "t": LIVE["t"],
}


def _payloads(directory):
    """Every record's payload bytes in the log, in order."""
    payloads = []
    for path in wal_module.segment_files(directory):
        data = path.read_bytes()
        offset = 0
        while offset < len(data):
            length, _crc = wal_module._HEADER.unpack_from(data, offset)
            offset += wal_module._HEADER.size
            payloads.append(data[offset : offset + length].decode("utf-8"))
            offset += length
    return payloads


def _crash_and_recover(tmp_path, lines):
    """Serve ``lines`` durably, stop without a checkpoint (a crash, as
    far as the data directory knows) and recover a fresh service:
    ``(replies, live fingerprints, log payloads, recovered service)``."""
    service = QueryService(data_dir=str(tmp_path), fsync="off")
    replies = serve(service, lines)
    live = {name: service.view(name).fingerprint() for name in service.name_table()}
    service.durability.close(final_checkpoint=False)
    payloads = _payloads(tmp_path)
    return replies, live, payloads, QueryService(data_dir=str(tmp_path), fsync="off")


class TestEveryShapeThroughTheLog:
    def test_replies_records_and_fingerprints_are_pinned(self, tmp_path):
        replies, live, payloads, recovered = _crash_and_recover(tmp_path, SHAPES)
        try:
            assert replies == SHAPE_REPLIES
            assert payloads == SHAPE_RECORDS
            assert live == LIVE
            assert {
                name: recovered.view(name).fingerprint() for name in ("s", "t")
            } == RECOVERED
        finally:
            recovered.close()

    def test_a_boolean_fact_survives_recovery(self, tmp_path):
        lines = ["register s stratified p(X) :- q(X).", "+s q(true)"]
        _replies, live, _payloads, recovered = _crash_and_recover(tmp_path, lines)
        try:
            assert recovered.view("s").fingerprint() == live["s"]
        finally:
            recovered.close()
