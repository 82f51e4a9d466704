"""Every value a write takes comes back from the data directory.

Logs and checkpoints hold facts as text, spelled and read by one codec
(``repro.datalog.facts``).  A value the spelling cannot carry is an
acked write lost at the next restart, or a checkpoint that no longer
loads; so strings holding the escape characters and booleans go
through a clean close (checkpoint) and a crash (log replay), and a
data directory written before booleans were spelled ``true`` /
``false`` still starts.
"""

import pytest

from repro.relations import Atom, Tup
from repro.service import QueryService, serve_stream
from repro.service.durability import wal as wal_module

PROGRAM = "register s stratified p(X) :- q(X)."

#: Strings that need escapes, a string ending in a backslash, booleans
#: and both inside a tuple: the wire text and the value it carries.
VALUES = [
    ("'it\\'s'", "it's"),
    ("'a\\\\'", "a\\"),
    ("'back\\\\slash'", "back\\slash"),
    ("'\\\\\\''", "\\'"),
    ("'two\nlines'", "two\nlines"),
    ("true", True),
    ("[false, 'it\\'s', a]", Tup((False, "it's", Atom("a")))),
]


def _serve(service, lines):
    replies = []
    serve_stream(service, lines, replies.append)
    return replies


def _typed(value):
    """``value`` with its type at every level (``True == 1`` otherwise)."""
    if isinstance(value, Tup):
        return (Tup, tuple(map(_typed, value.items)))
    return (type(value), value)


def _held(service):
    return {_typed(row[0]) for row in service.query("s", "q")}


@pytest.mark.parametrize("stop", ["close", "crash"])
def test_every_value_survives_a_restart(tmp_path, stop):
    service = QueryService(data_dir=str(tmp_path), fsync="off")
    replies = _serve(service, [PROGRAM] + [f"+s q({text})" for text, _ in VALUES])
    assert all(reply.startswith("ok {") for reply in replies), replies
    live = service.view("s").fingerprint()
    if stop == "close":
        service.close()  # a final checkpoint holds every fact
    else:
        service.durability.close(final_checkpoint=False)  # the log holds them
    recovered = QueryService(data_dir=str(tmp_path), fsync="off")
    try:
        assert recovered.last_recovery.skipped_records == 0
        assert _held(recovered) == {_typed(value) for _, value in VALUES}
        assert recovered.view("s").fingerprint() == live
    finally:
        recovered.close()


#: A data directory as an earlier release wrote it, byte for byte: a
#: checkpoint of ``s`` holding ``q(True)``, then a log that deletes it,
#: inserts it again and inserts ``q(False)`` (booleans were spelled the
#: way Python prints them, which the fact grammar read as variables).
LEGACY_CHECKPOINT = (
    '{"lsn": 2, "state": {"rollup": {"cache_hits": 0, "cache_misses": 0, '
    '"circuit_steps": 1, "compaction_rows": 0, "compactions": 0, '
    '"deletes_applied": 0, "delta_batches_coalesced": 0, "delta_minus_total": 0, '
    '"delta_plus_total": 2, "incremental_batches": 1, "inserts_applied": 1, '
    '"overdeleted_total": 0, "queries": 0, "recompute_batches": 0, '
    '"rederived_total": 0, "rows_matched": 1, "rows_scanned": 0, "rules_fired": 2, '
    '"snapshot_reads": 0, "snapshot_swaps": 2, "stale_queries": 0, '
    '"update_batches": 1}, "service_counters": {"demand_evictions": 0, '
    '"demand_fallbacks": 0, "demand_hits": 0, "demand_registrations": 0, '
    '"errors_total": 0, "lock_acquisitions": 1, "queries_total": 0, '
    '"recoveries": 1, "recovery_replay_records": 0, "registrations": 1, '
    '"requests_total": 2, "unregistrations": 0, "updates_total": 1, '
    '"wal_appends": 2, "wal_checkpoints": 0, "wal_fsyncs": 0, '
    '"wal_torn_records_dropped": 0}, "views": {"s": {"declared": ["q"], '
    '"facts": ["q(True)"], "fingerprint": '
    '"a424bcefcad88a658759ebaee58d3404d356cf34d4bd6ca010b9fdb3ef870aae", '
    '"semantics": "stratified", "source": "p(X) :- q(X)."}}}}'
)
LEGACY_LOG = (
    b'\x00\x00\x00E\xbd\x86r\xd3'
    b'{"deletes":["q(True)"],"inserts":[],"lsn":3,"op":"update","view":"s"}'
    b'\x00\x00\x00E\xf0\xdeg\x0b'
    b'{"deletes":[],"inserts":["q(True)"],"lsn":4,"op":"update","view":"s"}'
    b'\x00\x00\x00F3\x80\x00t'
    b'{"deletes":[],"inserts":["q(False)"],"lsn":5,"op":"update","view":"s"}'
)
#: The live database's fingerprint when that log ended.
LEGACY_FINGERPRINT = "c7bbe1120623e8e4345bfbd582bbe8bd4c89b2fc8a01976658e68909fc4736da"


def test_a_directory_with_legacy_booleans_starts_and_holds_them(tmp_path):
    (tmp_path / "GENERATION").write_text("1\n")
    (tmp_path / "checkpoint-00000000000000000002.json").write_text(LEGACY_CHECKPOINT)
    (tmp_path / "wal-00000000000000000003.log").write_bytes(LEGACY_LOG)
    # The log is well framed: three whole records, no torn tail.
    records, _clean_end, torn = wal_module.scan_segment(
        tmp_path / "wal-00000000000000000003.log"
    )
    assert (len(records), torn) == (3, 0)
    service = QueryService(data_dir=str(tmp_path), fsync="off")
    try:
        report = service.last_recovery
        assert (report.views_restored, report.replayed_records) == (1, 3)
        assert report.skipped_records == 0
        assert _held(service) == {(bool, True), (bool, False)}
        assert service.view("s").fingerprint() == LEGACY_FINGERPRINT
        assert _serve(service, ["query s p"]) == [
            "row p(false)",
            "row p(true)",
            "ok 2 rows",
        ]
    finally:
        service.close()


#: Values that read back before booleans and escapes were spelled for
#: the grammar, nested in a tuple (whose ``repr`` the fingerprint hashes):
#: a backslash before an ordinary character, a line break, the fact's
#: own punctuation.
KEPT = [
    PROGRAM,
    "+s q([a, -7, 'new york', 'a, ) @ . b', 'back\\slash', 'two\nlines', [b, 'x\\y']])",
    "+s q('c:\\temp')",
]
#: What an earlier release journaled for :data:`KEPT`, and the
#: fingerprint it recorded.
KEPT_INSERTS = [
    None,
    ["q([a, -7, 'new york', 'a, ) @ . b', 'back\\slash', 'two\nlines', [b, 'x\\y']])"],
    ["q('c:\\temp')"],
]
KEPT_FINGERPRINT = "f7228b889287c66786009c7203084ddd446f532e81c14c56a6fff7efeeb19339"


def test_what_read_back_before_keeps_its_records_and_fingerprint(tmp_path):
    service = QueryService(data_dir=str(tmp_path), fsync="off")
    assert all(reply.startswith("ok {") for reply in _serve(service, KEPT))
    assert service.view("s").fingerprint() == KEPT_FINGERPRINT
    service.durability.close(final_checkpoint=False)
    records = [
        record
        for path in wal_module.segment_files(tmp_path)
        for record in wal_module.scan_segment(path)[0]
    ]
    assert [record.operation.get("inserts") for record in records] == KEPT_INSERTS
    recovered = QueryService(data_dir=str(tmp_path), fsync="off")
    try:
        assert recovered.view("s").fingerprint() == KEPT_FINGERPRINT
    finally:
        recovered.close()


#: A checkpoint of ``s`` as an earlier release wrote it for
#: ``+s q([false, a])``: the fact spelled ``q([False, a])`` and the
#: fingerprint hashing the row as ``([False, a],)`` — that is,
#: ``sha256(b"q\x00([False, a],)\x01\x02")``, where the database now
#: hashes ``([false, a],)``.
TUPLE_CHECKPOINT = (
    '{"lsn": 2, "state": {"rollup": {}, "service_counters": {}, "views": {"s": '
    '{"declared": ["q"], "facts": ["q([False, a])"], "fingerprint": '
    '"5360671da66ab0b5df64ca21454e0e3a2a84d2f3290a11093f086523cd77f4ce", '
    '"semantics": "stratified", "source": "p(X) :- q(X)."}}}}'
)


def test_a_checkpoint_with_a_legacy_boolean_in_a_tuple_starts_and_answers(tmp_path):
    """Recovery re-checks a fingerprint that disagrees under the spelling
    the checkpoint was written with, so the directory starts."""
    (tmp_path / "GENERATION").write_text("1\n")
    (tmp_path / "checkpoint-00000000000000000002.json").write_text(TUPLE_CHECKPOINT)
    service = QueryService(data_dir=str(tmp_path), fsync="off")
    try:
        assert service.last_recovery.views_restored == 1
        assert _held(service) == {_typed(Tup((False, Atom("a"))))}
        assert _serve(service, ["query s p"]) == ["row p([false, a])", "ok 1 rows"]
    finally:
        service.close()
