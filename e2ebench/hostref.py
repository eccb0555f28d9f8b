"""Host-speed reference: a fixed pure-Python loop that uses none of the
program's code.

The shared 2-CPU host this benchmark was tuned on changes speed by
10-30% within a minute (see README).  Every run samples this loop
before and after each slice of its workload, so each record says how
fast the host was while it measured, slice by slice.  A speed of 1.0
means one sample took `NOMINAL_MS`; a time multiplied by the speed
estimates the time the same work would have taken on a host of nominal
speed.

The loop mixes integer arithmetic with dict updates, tuple allocation
and sorting, because on this host such interpreter work slows down more
than a pure arithmetic loop does when neighbours are busy.
"""

from __future__ import annotations

import socket
import statistics
import time

#: Nominal duration of one `sample_ms` call; the correction scale only.
NOMINAL_MS = 3.0
#: Nominal echo round trip, likewise.
NOMINAL_HOP_MS = 0.1
_HOP_FRAME = b'{"op": "ping", "id": 1, "query": "R(x, y)"}\n'


def sample_ms() -> float:
    """One timed pass of the reference loop, in milliseconds."""
    started = time.perf_counter()
    total = 0
    table: dict = {}
    for i in range(6000):
        total += i * i % 7
        key = (i * 7919) % 1543
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda item: item[1])
    tuples = [tuple(range(i % 6)) for i in range(3000)]
    total += len(ordered) + sum(len(t) for t in tuples)
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the work's result live
        raise AssertionError
    return elapsed * 1000.0


class HostRef:
    """Reference samples, taken in ticks of ``per_tick`` loop samples.

    With an ``echo`` address (a running ``echo.py``), each tick also
    times ``hops_per_tick`` round trips of a small JSON frame to it:
    the cost of a process hop on loopback, which the serving workloads
    pay several times per request and which a busy host slows far more
    than it slows the loop."""

    def __init__(self, per_tick: int = 3, echo=None, hops_per_tick: int = 15) -> None:
        self.per_tick = per_tick
        self.hops_per_tick = hops_per_tick
        self.samples: list[float] = []
        self.hop_samples: list[float] = []
        self._echo = None
        if echo is not None:
            self._echo = socket.create_connection(echo, timeout=30)
            self._echo.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._echo_reader = self._echo.makefile("rb")

    def tick(self) -> tuple:
        """Sample now; returns ``(loop ms, hop ms or None)`` medians."""
        taken = [sample_ms() for __ in range(self.per_tick)]
        self.samples.extend(taken)
        hop = None
        if self._echo is not None:
            hops = [self._hop_ms() for __ in range(self.hops_per_tick)]
            self.hop_samples.extend(hops)
            hop = statistics.median(hops)
        return statistics.median(taken), hop

    def _hop_ms(self) -> float:
        started = time.perf_counter()
        self._echo.sendall(_HOP_FRAME)
        if not self._echo_reader.readline():
            raise ConnectionError("echo reference closed")
        return (time.perf_counter() - started) * 1000.0

    @staticmethod
    def speeds(*ticks: tuple) -> dict:
        """Host speeds around a slice of work, from its ticks: ``loop``
        always, ``hop`` when the ticks timed round trips."""
        speeds = {"loop": NOMINAL_MS / statistics.fmean(t[0] for t in ticks)}
        if all(t[1] is not None for t in ticks):
            speeds["hop"] = NOMINAL_HOP_MS / statistics.fmean(t[1] for t in ticks)
        return speeds

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def close(self) -> None:
        if self._echo is not None:
            self._echo_reader.close()
            self._echo.close()
            self._echo = None
