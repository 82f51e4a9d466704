"""A wrong, refused or missing reply is counted, never fatal."""

import itertools

import oracle
import run
import workloads


def test_self_test_counts_the_corrupted_replies():
    assert oracle.self_test() == 0


def test_a_lying_server_shows_up_as_failed_ops():
    """Drive the real ``threeval_rw`` stream against an in-process
    service whose replies are tampered with: a dropped ``undef`` row on
    a checked read and one ``error`` reply both land in ``failed``."""
    workload = workloads.SERVING["threeval_rw"]
    replay = run.Replay(workload, seed=3)
    try:
        stream = replay.prepare(replay.request)
        seen = itertools.count()

        def tampering(line):
            reply = list(replay.request(line))
            turn = next(seen)
            if turn == 5:
                return ["error injected InjectedFault: the benchmark's own lie"]
            if line.startswith("query"):
                reply = [row for row in reply if not row.startswith("undef ")]
            return reply

        tally = run.Tally()
        run.drive(tampering, stream, tally, count=60)
        honest_failures = tally.failed
        run.settle(tally, oracle.Oracle(workload.views), workload.max_checks)
        assert honest_failures == 1  # the error reply, counted on the spot
        assert tally.failed > honest_failures  # sampled reads lost their undef rows
        assert tally.attempted == 60 and len(tally.op_seconds) == 60
    finally:
        replay.close()
