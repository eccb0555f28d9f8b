"""Driving the program from outside: server processes and the client.

`Server` launches ``python -m repro serve|fleet`` from the checkout's
``src`` tree, waits for its `ReadyFrame`, reads peak RSS over its
process tree and stops it.  `closed_loop` is the load generator: a few
connections, each sending its next frame only after the previous reply
(``serve`` and ``batch`` callers wait for each reply).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: A slice that has not finished this long after its end is a hang.
SLICE_GRACE_S = 30.0


def program_env(root: Path, hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = hash_seed
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def tree_pids(root_pid: int) -> list[int]:
    """``root_pid`` and all its descendants, from /proc."""
    pids, queue = [], [root_pid]
    while queue:
        pid = queue.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    queue.extend(int(c) for c in handle.read().split())
            except OSError:
                pass
    return pids


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


class Server:
    """One serving process tree (``serve`` or ``fleet``)."""

    def __init__(self, root: Path, argv: list, env: dict, log_path: Path) -> None:
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} before ready")
            readable, __, __ = select.select([stdout], [], [], 0.2)
            if not readable:
                continue
            chunk = os.read(stdout.fileno(), 65536)
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                try:
                    frame = json.loads(line)
                except ValueError:
                    continue
                if isinstance(frame, dict) and "ready" in frame:
                    self.host = frame["ready"]["host"]
                    self.port = frame["ready"]["port"]
                    return
        raise RuntimeError("server not ready in time")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(tree_pids(self.process.pid))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for pid in reversed(tree_pids(self.process.pid)):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.process.wait(timeout=STOP_TIMEOUT_S)
        self.process.stdout.close()
        self._log.close()


class Echo:
    """The ``echo.py`` reference server, for `HostRef` hop samples."""

    def __init__(self, root: Path, env: dict) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(root / "e2ebench" / "echo.py")],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        readable, __, __ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline() if readable else b""
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("echo reference did not start")
        self.address = ("127.0.0.1", int(line))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        self.process.stdout.close()


class Connection:
    """A blocking JSON-lines connection for warm-up and stats frames."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._socket.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self._reader.close()
        self._socket.close()


@dataclass
class LoadResult:
    #: ``(request id, frame, send time, receive time, raw reply, slice)``.
    replies: list = field(default_factory=list)
    #: ``(seconds, host speeds)`` per slice.
    slices: list = field(default_factory=list)
    attempted: int = 0
    timed_out: bool = False


def closed_loop(
    host: str,
    port: int,
    stream,
    *,
    connections: int,
    seconds: float,
    min_ops: int,
    hostref,
    slice_s: float = 0.5,
) -> LoadResult:
    """Run the closed loop for ``seconds`` of measured time (and at
    least ``min_ops`` replies) in slices, pausing between slices for the
    host reference, which stays out of the measured time.  Request ids are
    the stream positions, so every reply can be matched to its frame."""
    return asyncio.run(
        _closed_loop(host, port, stream, connections, seconds, min_ops, hostref, slice_s)
    )


async def _closed_loop(host, port, stream, connections, seconds, min_ops, hostref, slice_s):
    result = LoadResult()
    counter = itertools.count()
    replies = result.replies
    pairs = [
        await asyncio.open_connection(host, port, limit=1 << 24)
        for __ in range(connections)
    ]
    clock = time.perf_counter

    async def run(reader, writer, until: float, slice_no: int) -> None:
        while clock() < until:
            frame = next(stream)
            index = next(counter)
            data = b'{"id": %d, ' % index + frame.wire
            result.attempted += 1
            sent = clock()
            writer.write(data)
            line = await reader.readline()
            replies.append((index, frame, sent, clock(), line, slice_no))
            if not line:
                raise ConnectionError("server closed the connection")

    measured = 0.0
    before = hostref.tick()
    try:
        while measured < seconds or len(replies) < min_ops:
            started = clock()
            until = started + slice_s
            slice_no = len(result.slices)
            try:
                await asyncio.wait_for(
                    asyncio.gather(*(run(r, w, until, slice_no) for r, w in pairs)),
                    timeout=slice_s + SLICE_GRACE_S,
                )
            except (asyncio.TimeoutError, ConnectionError):
                result.timed_out = True
                result.slices.append((clock() - started, hostref.speeds(before)))
                break
            elapsed = clock() - started
            measured += elapsed
            after = hostref.tick()
            result.slices.append((elapsed, hostref.speeds(before, after)))
            before = after
    finally:
        for __, writer in pairs:
            writer.close()
    return result
