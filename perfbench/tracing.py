"""Spans and timers recorded around the benchmark's calls into diagopt.

A ``Pass`` times every call it makes and adds the time to the end-to-end
stage the call belongs to (``solve_s``, ``lp_export_s``, ...). When it is
traced it also records a span per call: name (``module.function``), start,
end, parent span and request id (the cell the call serves). Spans stay in
memory and are written out by the caller when the run ends.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

# Process CPU time: the benchmark is one single-threaded closed loop, and on a
# shared machine wall time also counts the time other tenants hold the core.
clock = time.process_time


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str | None
    start: float
    end: float = 0.0

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Pass:
    """One session of a workload: its stage times, counts and (if traced) spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.stage: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.ops: list[dict[str, Any]] = []  # one record per operation
        self.setups: list[dict[str, float]] = []  # cpu_s and speed_s of each set-up
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: str | None = None

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        """Group the calls inside under one span; ``request`` names the cell."""
        outer = self._request
        if request is not None:
            self._request = request
        sid = self._open(name) if self.traced else None
        try:
            yield
        finally:
            if sid is not None:
                self._close(sid)
            self._request = outer

    def call(self, name: str, fn: Callable[..., Any], *args: Any, stage: str | None = None, **kw: Any) -> Any:
        """Run ``fn`` as span ``name``; add its time to ``stage`` when given."""
        sid = self._open(name) if self.traced else None
        started = clock()
        try:
            return fn(*args, **kw)
        finally:
            took = clock() - started
            if sid is not None:
                self._close(sid)
            if stage is not None:
                self.stage[stage] += took

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, parent, self._request, clock()))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = clock()
        self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


# The machine the baseline was recorded on (Intel Xeon, 2.1 GHz, a KVM guest
# with 2 vCPUs on a shared host) runs the same code up to ~1.6x slower for
# minutes at a time, so end-to-end times are rescaled by ``speed_probe()``
# taken around each timed step. SPEED_REF_S is its median there.
SPEED_REF_S = 0.0085


def speed_probe(loops: int = 100_000) -> float:
    """CPU seconds of a fixed pure-Python loop on this thread: how fast the machine runs now."""
    started = time.thread_time()
    x = 0
    for i in range(loops):
        x += i * i % 7
    return time.thread_time() - started


def at_reference(cpu_s: float, speed_s: float) -> float:
    """``cpu_s`` rescaled to the speed at which ``speed_probe()`` takes ``SPEED_REF_S``."""
    return cpu_s * SPEED_REF_S / speed_s


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """CPU seconds that tracing adds to one call.

    A traced and an untraced ``Pass`` make the same no-op calls back to
    back; the median difference per call over ``rounds`` is the cost.
    """
    costs = []
    for _ in range(rounds):
        per_call = []
        for traced in (True, False):
            p = Pass(traced)
            started = clock()
            for _ in range(calls):
                p.call("bench.noop", int)
            per_call.append((clock() - started) / calls)
        costs.append(per_call[0] - per_call[1])
    return statistics.median(costs)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    spans = list(spans)
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def module_table(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per module: span count, total time and self time."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.module, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        row["spans"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table
