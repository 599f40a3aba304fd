"""Run one benchmark input in a forked child under its own resource limits.

A blow-up then costs one failed input instead of the whole run, and the
peak resident memory the kernel reports for the child belongs to that
input alone.  The limits are set with setrlimit inside the child, so they
act on the benchmark's own processes only.  Fork rather than spawn: the
parent has no threads, and a forked child starts with the package already
imported, as a warm process would.
"""
from __future__ import annotations

import gc
import json
import math
import os
import resource
import select
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


MEMORY_ERROR = "over the memory limit"


@dataclass(frozen=True)
class Finished:
    payload: Any  # what the child returned; None when it failed
    error: Optional[str]
    wall_s: float
    peak_rss_mb: float
    over_limit: bool = False  # killed at the time limit or out of memory


class Child:
    """One forked child computing ``fn(arg)``; ``fn`` returns a JSON value."""

    def __init__(self, fn: Callable[[Any], Any], arg: Any, limit_s: float, limit_bytes: int):
        self.limit_s = limit_s
        sys.stdout.flush()
        sys.stderr.flush()
        read_end, write_end = os.pipe()
        self.start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            _child(fn, arg, write_end, limit_s, limit_bytes)
        os.close(write_end)
        self.pid = pid
        self.fd = read_end

    def wait(self) -> Finished:
        """Collect the result, killing the child at the time limit."""
        deadline = self.start + self.limit_s
        chunks = []
        timed_out = False
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                os.kill(self.pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        os.close(self.fd)
        _, status, usage = os.wait4(self.pid, 0)
        wall = time.perf_counter() - self.start
        peak = usage.ru_maxrss / 1024  # Linux reports kilobytes
        if timed_out:
            return Finished(None, f"over the {self.limit_s:g} s time limit", wall, peak, True)
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) in (signal.SIGXCPU, signal.SIGKILL):
            return Finished(None, "over the CPU time limit", wall, peak, True)
        if status != 0 or not chunks:
            return Finished(None, f"child ended with wait status {status}", wall, peak)
        payload = json.loads(b"".join(chunks))
        if payload.get("error") == MEMORY_ERROR:
            return Finished(None, MEMORY_ERROR, wall, peak, True)
        if "error" in payload:
            return Finished(None, payload["error"], wall, peak)
        return Finished(payload["value"], None, wall, peak)


def _child(fn, arg, fd: int, limit_s: float, limit_bytes: int) -> None:
    status = 1
    # the child's collector then leaves the inherited objects alone instead
    # of copying every page that holds one
    gc.freeze()
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
        cpu = math.ceil(limit_s) + 1  # a backstop; the parent kills at the wall limit
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
        try:
            data = json.dumps({"value": fn(arg)}).encode()
        except MemoryError:
            data = json.dumps({"error": MEMORY_ERROR}).encode()
        except Exception as err:  # the input failed; the run goes on
            data = json.dumps({"error": f"{type(err).__name__}: {err}"}).encode()
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)
