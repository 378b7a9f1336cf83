"""Pluggable instrumentation for the timing model.

Observers attach to a :class:`repro.sim.timing_model.NetworkSimulator`
with its ``attach_observer`` and sample its state as events happen,
without touching the hot path when none are registered.  An observer
needs no base class: it defines whichever of the four hooks it wants
(``on_attach``, ``on_enter``, ``on_dispatch``, ``on_delivery``; see
``attach_observer``).  They exist for the questions the paper
answers with prose rather than figures -- e.g. "the network produces a
cyclic pattern of network link utilization with extremely high levels
of uniform random input traffic ... the period of this cycle increases
with the diameter of the network" (section 3.4) -- and for debugging.

Three observers ship with the library:

* :class:`ThroughputTimeline` -- delivered flits bucketed into fixed
  windows; its :meth:`oscillation` quantifies the clog/clear cycle.
* :class:`BufferOccupancyProbe` -- periodic snapshots of total buffered
  packets (the tree-saturation signature).
* :class:`PacketTracer` -- per-packet hop logs for a sampled subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from repro.network.packets import Packet


class ThroughputTimeline:
    """Delivered flits per fixed-size window of core cycles.

    The paper describes saturated networks clogging and clearing
    cyclically; this observer makes that visible as an oscillating
    delivered-throughput series and summarizes it with
    :meth:`oscillation` (coefficient of variation across windows) and
    :meth:`dominant_period` (autocorrelation peak, in windows).
    """

    def __init__(self, window_cycles: float = 500.0) -> None:
        if not 0 < window_cycles < math.inf:
            raise ValueError("window must be finite and positive")
        self.window_cycles = window_cycles
        self.windows: list[int] = []

    def on_delivery(self, simulator, packet: Packet) -> None:
        index = int(simulator.now // self.window_cycles)
        while len(self.windows) <= index:
            self.windows.append(0)
        self.windows[index] += packet.flits

    def series(self, skip_windows: int = 0) -> list[int]:
        """Flits per window, optionally skipping warmup windows."""
        return self.windows[skip_windows:]

    def oscillation(self, skip_windows: int = 0) -> float:
        """Coefficient of variation of the windowed throughput."""
        series = self.series(skip_windows)
        if len(series) < 2:
            return 0.0
        mean = sum(series) / len(series)
        if mean == 0:
            return 0.0
        variance = sum((v - mean) ** 2 for v in series) / (len(series) - 1)
        return math.sqrt(variance) / mean

    def dominant_period(self, skip_windows: int = 0) -> int | None:
        """Lag (in windows) of the highest autocorrelation peak.

        Returns None when the series is too short or shows no positive
        off-zero peak -- i.e. no discernible cycle.
        """
        series = [float(v) for v in self.series(skip_windows)]
        n = len(series)
        if n < 8:
            return None
        mean = sum(series) / n
        centered = [v - mean for v in series]
        denominator = sum(v * v for v in centered)
        if denominator == 0:
            return None
        best_lag, best_value = None, 0.0
        previous = 1.0
        descending = False
        for lag in range(1, n // 2):
            value = sum(
                centered[i] * centered[i + lag] for i in range(n - lag)
            ) / denominator
            if value < previous:
                descending = True
            # First local maximum after the initial descent.
            if descending and value > best_value and value > previous:
                best_lag, best_value = lag, value
            previous = value
        return best_lag


class BufferOccupancyProbe:
    """Total buffered packets, sampled on a fixed cycle cadence.

    Cheap enough to leave on: it samples at most once per
    ``min_interval_cycles`` regardless of event rate.

    Sampling is driven by the simulator's ``every`` ticker (plus a
    cheap opportunistic sample on dispatch), not by dispatches alone: a
    saturated, clogged network can go whole intervals without any
    dispatch, which is exactly when the occupancy curve matters --
    dispatch-only sampling went blind at the top of the tree-saturation
    spike.  The ticker keeps sampling through ``drain()`` and stops
    once the network quiesces.
    """

    def __init__(self, min_interval_cycles: float = 250.0) -> None:
        if not 0 < min_interval_cycles < math.inf:
            raise ValueError("min_interval_cycles must be finite and positive")
        self.min_interval_cycles = min_interval_cycles
        self.samples: list[tuple[float, int]] = []
        self._next_sample = 0.0

    def on_attach(self, simulator) -> None:
        simulator.every(self.min_interval_cycles, partial(self._sample, simulator))

    def on_dispatch(self, simulator, router, dispatch) -> None:
        self._sample(simulator)

    def _sample(self, simulator) -> None:
        now = simulator.now
        if now >= self._next_sample:
            self.samples.append((now, simulator.total_buffered_packets()))
            self._next_sample = now + self.min_interval_cycles

    def peak(self) -> int:
        return max((count for _, count in self.samples), default=0)

    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(count for _, count in self.samples) / len(self.samples)


@dataclass(slots=True)
class HopRecord:
    """One hop of a traced packet."""

    time: float
    node: int
    output: int
    service_cycles: float


@dataclass
class PacketTrace:
    """The full story of one traced packet."""

    uid: int
    pclass: str
    source: int
    destination: int
    injected_at: float
    hops: list[HopRecord] = field(default_factory=list)
    delivered_at: float | None = None

    @property
    def hop_count(self) -> int:
        return len(self.hops)


class PacketTracer:
    """Records hop-by-hop logs for every Nth packet.

    Tracing every packet of a long run would dominate memory; the
    sampling rate keeps it proportionate while still catching
    representative journeys (and any pathological ones: the longest
    trace is usually the interesting one).
    """

    def __init__(self, sample_every: int = 100, max_traces: int = 10_000) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.max_traces = max_traces
        self.traces: dict[int, PacketTrace] = {}

    def _trace_for(self, packet: Packet) -> PacketTrace | None:
        trace = self.traces.get(packet.uid)
        if trace is not None:
            return trace
        if packet.uid % self.sample_every != 0:
            return None
        if len(self.traces) >= self.max_traces:
            return None
        trace = PacketTrace(
            uid=packet.uid,
            pclass=packet.pclass.label,
            source=packet.source,
            destination=packet.destination,
            injected_at=packet.injected_at,
        )
        self.traces[packet.uid] = trace
        return trace

    def on_dispatch(self, simulator, router, dispatch) -> None:
        trace = self._trace_for(dispatch.packet)
        if trace is not None:
            trace.hops.append(
                HopRecord(
                    time=dispatch.grant_time,
                    node=router.node,
                    output=int(dispatch.plan.output),
                    service_cycles=dispatch.service_cycles,
                )
            )

    def on_delivery(self, simulator, packet: Packet) -> None:
        trace = self.traces.get(packet.uid)
        if trace is not None:
            trace.delivered_at = simulator.now

    def completed(self) -> list[PacketTrace]:
        return [t for t in self.traces.values() if t.delivered_at is not None]

    def longest(self) -> PacketTrace | None:
        completed = self.completed()
        if not completed:
            return None
        return max(completed, key=lambda t: t.delivered_at - t.injected_at)
