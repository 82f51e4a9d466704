"""Fixtures shared by the service suites."""

import os
import time

import pytest

from repro.service.cluster.router import WorkerHandle


@pytest.fixture(autouse=True, scope="module")
def workers_exit_on_sigterm(request):
    """In the cluster suites, a worker the router stops must leave on
    SIGTERM alone — final checkpoint and all — never by waiting out the
    join and being killed: ``stop_process``'s last-resort branch is the
    only caller of ``Process.kill`` (tests that crash a worker on
    purpose signal its pid directly).  Module-scoped, so it also covers
    the teardown of clusters shared by a whole module."""
    if "cluster" not in request.module.__name__:
        yield
        return
    killed = []
    stop_process = WorkerHandle.stop_process

    def checked(handle, timeout=5.0):
        # A kill names the shard, the test whose stop it was (or its
        # teardown) and how long that stop took.
        test = os.environ.get("PYTEST_CURRENT_TEST", "?")
        started = time.monotonic()
        process = handle.process
        if process is not None:
            kill = process.kill

            def record_kill():
                seconds = round(time.monotonic() - started, 2)
                killed.append((handle.shard_id, test, seconds))
                kill()

            process.kill = record_kill
        stop_process(handle, timeout)

    WorkerHandle.stop_process = checked
    try:
        yield
    finally:
        WorkerHandle.stop_process = stop_process
    assert not killed, f"workers SIGTERM did not stop: {killed}"
