"""Server processes, protocol clients and host facts for the benchmark.

Every server is a real ``python -m repro serve`` subprocess started in
its own session, so one ``killpg`` reaches the router, its workers and
the multiprocessing helpers.  Servers are killed in ``finally`` blocks
and again at interpreter exit; their scratch directories (socket, data
dir) live under ``bench/.run/`` inside the checkout and are removed with
them.  SIGKILL is the normal way out: the one measured SIGTERM is
``cluster_mix``'s teardown in the traced run (``run.cluster_teardown``).
"""

from __future__ import annotations

import atexit
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Scratch space of this benchmark process (sockets, data dirs).
RUN_DIR = BENCH_DIR / ".run" / str(os.getpid())

#: Seconds one request may take before it is recorded as a timeout.
REQUEST_TIMEOUT = 30.0
#: Seconds a server may take from spawn to accepting connections.
READY_TIMEOUT = 60.0

_LIVE: List["Server"] = []


def child_env() -> Dict[str, str]:
    """Environment for server subprocesses.

    ``PYTHONHASHSEED=0`` fixes set iteration order, which the engines'
    work counters (``rules_fired`` …) depend on; without it the exact
    counts would differ from run to run for one seed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = "0"
    return env


def _relative(path: Path) -> str:
    """``path`` relative to the working directory: unix socket paths are
    capped at ~107 bytes, and a checkout can sit arbitrarily deep."""
    return os.path.relpath(path, os.getcwd())


class Server:
    """One ``repro serve`` process tree on a unix socket."""

    def __init__(
        self,
        flags: Sequence[str] = (),
        workdir: Optional[Path] = None,
    ):
        self.owns_workdir = workdir is None
        self.workdir = workdir or RUN_DIR / uuid.uuid4().hex[:12]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.socket_path = self.workdir / "s.sock"
        self.data_dir = self.workdir / "data"
        argv = [
            sys.executable, "-m", "repro", "serve", "--socket", "s.sock",
            "--data-dir", "data", "--fsync", "batch", *flags,
        ]
        self.cluster = "--shards" in argv
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=self.workdir,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.pgid = self.process.pid
        _LIVE.append(self)

    def connect(self):
        """Block until the front door accepts; returns a client."""
        from repro.robustness import ClusterError  # "not up yet", framed

        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    "accepting connections"
                )
            try:
                if self.cluster:
                    return FramedClient(self.socket_path)
                return LineClient(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError, ClusterError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never accepted connections")
                time.sleep(0.002)

    def pids(self) -> List[int]:
        """Live processes of the server's session (router + workers)."""
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                if os.getpgid(int(entry)) == self.pgid:
                    found.append(int(entry))
            except (ProcessLookupError, PermissionError):
                continue
        return found

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's processes, in MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except (FileNotFoundError, ProcessLookupError):
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole session and wait for the front process."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(10)
        except subprocess.TimeoutExpired:  # unkillable: nothing left to try
            pass
        # Workers are grandchildren; wait until the kernel has reaped them
        # so the next server starts on an idle box.
        deadline = time.perf_counter() + 5.0
        while self.pids() and time.perf_counter() < deadline:
            time.sleep(0.005)
        if self in _LIVE:
            _LIVE.remove(self)

    def close(self) -> None:
        """Kill the server and remove its scratch directory."""
        self.kill()
        if self.owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _kill_all() -> None:
    for server in list(_LIVE):
        server.close()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    try:
        RUN_DIR.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


atexit.register(_kill_all)


class LineClient:
    """One closed-loop connection speaking the newline protocol."""

    def __init__(self, socket_path: Path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_TIMEOUT)
        try:
            self.sock.connect(_relative(socket_path))
        except BaseException:
            self.sock.close()
            raise
        self.stream = self.sock.makefile("rwb")

    def request(self, line: str) -> List[str]:
        """Send one request line; the reply lines, terminator last."""
        self.stream.write(line.encode("utf-8") + b"\n")
        self.stream.flush()
        replies = []
        while True:
            raw = self.stream.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            reply = raw.decode("utf-8").rstrip("\n")
            replies.append(reply)
            if reply.startswith(("ok", "error")):
                return replies

    def close(self) -> None:
        for closer in (self.stream.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class FramedClient:
    """The same ``request`` surface over the cluster's framed protocol
    (a thin adapter around the repo's own :class:`ClusterClient`)."""

    def __init__(self, socket_path: Path):
        from repro.service.cluster import ClusterClient

        # One attempt: Server.connect owns the retry loop and watches
        # for a dead process between attempts.
        self.client = ClusterClient(
            _relative(socket_path), timeout=REQUEST_TIMEOUT, connect_attempts=1
        )

    def request(self, line: str) -> List[str]:
        return self.client.request(line)

    def close(self) -> None:
        self.client.close()


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info() -> Dict[str, object]:
    """What a reader needs to judge whether two results are comparable."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "fsync": "batch",
        "connections": 1,
    }


def own_peak_rss_mb() -> float:
    """This process's ``VmHWM`` in MiB (the in-process workload)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
