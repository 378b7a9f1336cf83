"""A deterministic event-driven simulation kernel.

The paper's models were written in the (proprietary) Asim framework;
this is our substitute.  Events are (time, sequence, callback) tuples
on a binary heap: ties in time break by insertion order, so a given
seed always replays the exact same schedule.  Time is measured in core
clock cycles as a float (torus flit times are multiples of 1.5 cycles).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

_INF = math.inf


class EventQueue:
    """Time-ordered callback queue with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.now = 0.0

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run *callback* when the clock reaches *time*."""
        if not self.now <= time < _INF:
            if not math.isfinite(time):
                # NaN would silently corrupt the heap ordering (every
                # comparison is False) and inf would wedge run_until_idle;
                # both are always latent arithmetic bugs upstream.
                raise ValueError(f"event time must be finite, got {time!r}")
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, self._sequence, callback))
        self._sequence += 1

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* cycles."""
        if not 0 <= delay < _INF:
            if not math.isfinite(delay):
                raise ValueError(f"delay must be finite, got {delay!r}")
            raise ValueError("delay cannot be negative")
        self.schedule_at(self.now + delay, callback)

    def run_until(self, end_time: float) -> None:
        """Process events with time <= *end_time*, in order.

        The clock finishes at *end_time* even if the queue drains
        early; events scheduled beyond the horizon stay queued (and are
        simply never run by this call).
        """
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            time, _, callback = heapq.heappop(heap)
            self.now = time
            callback()
        self.now = end_time

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Drain every event (up to a safety horizon)."""
        heap = self._heap
        while heap and heap[0][0] <= max_time:
            time, _, callback = heapq.heappop(heap)
            self.now = time
            callback()

    @property
    def pending(self) -> int:
        return len(self._heap)
