"""Waiting on what a spawned server says, without sleeping."""

import os
import select
import time


def read_until(process, marker: bytes, seconds: float = 60.0) -> bytes:
    """Read ``process``'s stderr pipe until ``marker`` appears; return
    everything read.  Fails when the process exits first or when
    ``seconds`` pass: both say what it printed."""
    deadline = time.monotonic() + seconds
    fd = process.stderr.fileno()
    seen = b""
    while marker not in seen:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"never printed {marker!r}: {seen!r}"
        readable, _, _ = select.select([fd], [], [], remaining)
        if readable:
            chunk = os.read(fd, 65536)
            if not chunk:
                process.wait(timeout=30)
                raise AssertionError(
                    f"server died on startup ({process.returncode}): "
                    f"{seen.decode(errors='replace')}"
                )
            seen += chunk
    return seen
