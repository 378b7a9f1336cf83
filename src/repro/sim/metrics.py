"""Performance metrics: running statistics and Burton-Normal-Form points.

The paper reports Burton Normal Form (BNF) graphs: average packet
latency (nanoseconds, vertical) against delivered throughput
(flits/router/ns, horizontal).  A load sweep produces one
:class:`BNFPoint` per offered load; :class:`BNFCurve` collects them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


class RunningStats:
    """Numerically stable streaming mean/variance (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (Chan's formula)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class ReservoirSampler:
    """Fixed-size uniform sample of a stream (Vitter's algorithm R).

    Keeps percentile queries cheap on multi-hundred-thousand-packet
    runs without storing every latency.  Deterministic given the seed,
    like everything else in the simulator.  The sorted view is cached
    between queries and invalidated on :meth:`add`, so reading many
    percentiles off a settled sample sorts once instead of per call.
    """

    __slots__ = ("capacity", "count", "_values", "_rng", "_sorted")

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.count = 0
        self._values: list[float] = []
        self._rng = random.Random(seed)
        self._sorted: list[float] | None = None

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(value)
            self._sorted = None
            return
        index = self._rng.randrange(self.count)
        if index < self.capacity:
            self._values[index] = value
            self._sorted = None

    def percentile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) of the sampled distribution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if not self._values:
            return math.nan
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._values)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        if ordered[low] == ordered[high]:
            return ordered[low]
        fraction = position - low
        # Linear interpolation, clamped against floating-point wobble
        # so percentiles stay monotone in q.
        value = ordered[low] * (1 - fraction) + ordered[high] * fraction
        return min(max(value, ordered[low]), ordered[high])

    @property
    def sampled(self) -> int:
        return len(self._values)


@dataclass
class NetworkStats:
    """Everything measured during one timing-model run's window."""

    #: per-packet network latency in nanoseconds (injection to last
    #: flit delivered), over packets delivered inside the window.
    packet_latency_ns: RunningStats = field(default_factory=RunningStats)
    #: uniform sample of packet latencies for percentile queries.
    latency_sample: ReservoirSampler = field(default_factory=ReservoirSampler)
    #: per-transaction latency in nanoseconds (miss issued to block
    #: response delivered).
    transaction_latency_ns: RunningStats = field(default_factory=RunningStats)
    flits_delivered: int = 0
    packets_delivered: int = 0
    transactions_completed: int = 0
    transactions_started: int = 0
    transactions_throttled: int = 0
    packets_injected: int = 0
    window_ns: float = 0.0
    num_routers: int = 1
    #: resilience accounting (whole run, not just the measurement
    #: window): injected link faults, retransmissions they triggered,
    #: packets dropped after exhausting retries (by recorded reason)
    #: and coherence transactions aborted by those drops.
    link_faults: int = 0
    link_retries: int = 0
    packets_dropped: int = 0
    drops_by_reason: dict = field(default_factory=dict)
    transactions_aborted: int = 0

    def delivered_flits_per_router_ns(self) -> float:
        """The paper's throughput metric."""
        if self.window_ns <= 0:
            return 0.0
        return self.flits_delivered / (self.num_routers * self.window_ns)

    def latency_percentile_ns(self, q: float) -> float:
        """Packet-latency percentile over the measurement window."""
        return self.latency_sample.percentile(q)


@dataclass(frozen=True, slots=True)
class BNFPoint:
    """One point of a Burton-Normal-Form latency/throughput curve."""

    offered_rate: float
    throughput: float
    latency_ns: float
    transaction_latency_ns: float = math.nan
    packets_delivered: int = 0
    #: optional per-algorithm arbiter counters for this point (from
    #: repro.obs telemetry); excluded from equality so instrumented and
    #: plain runs of the same config compare equal.
    counters: dict | None = field(default=None, compare=False)

    def as_row(self) -> tuple[float, float, float]:
        return (self.offered_rate, self.throughput, self.latency_ns)

    def as_dict(self) -> dict:
        """JSON-serializable form (sweep checkpoint journals)."""
        return {
            "offered_rate": self.offered_rate,
            "throughput": self.throughput,
            "latency_ns": self.latency_ns,
            "transaction_latency_ns": self.transaction_latency_ns,
            "packets_delivered": self.packets_delivered,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BNFPoint":
        """Inverse of :meth:`as_dict` (journal resume)."""
        return cls(
            offered_rate=float(data["offered_rate"]),
            throughput=float(data["throughput"]),
            latency_ns=float(data["latency_ns"]),
            transaction_latency_ns=float(
                data.get("transaction_latency_ns", math.nan)
            ),
            packets_delivered=int(data.get("packets_delivered", 0)),
            counters=data.get("counters"),
        )


@dataclass
class BNFCurve:
    """A labelled series of BNF points (one algorithm's sweep)."""

    label: str
    points: list[BNFPoint] = field(default_factory=list)

    def add(self, point: BNFPoint) -> None:
        self.points.append(point)

    def peak_throughput(self) -> float:
        """Best delivered throughput anywhere on the curve."""
        return max((p.throughput for p in self.points), default=0.0)

    def throughput_at_latency(self, latency_ns: float) -> float:
        """Delivered throughput where the curve crosses *latency_ns*.

        The paper states results like "11% higher throughput at about
        83 ns average latency"; this interpolates the curve the same
        way.  Points are sorted by latency; the latency is assumed
        monotone along the sweep (it is, up to noise, below
        saturation).  Returns the interpolated throughput, the first
        point's throughput if every point is slower, or the peak
        throughput if the curve never gets that slow.
        """
        points = sorted(self.points, key=lambda p: p.latency_ns)
        if not points:
            return 0.0
        if latency_ns <= points[0].latency_ns:
            return points[0].throughput
        best = points[0].throughput
        for earlier, later in zip(points, points[1:]):
            best = max(best, earlier.throughput)
            if earlier.latency_ns <= latency_ns <= later.latency_ns:
                span = later.latency_ns - earlier.latency_ns
                if span <= 0:
                    return max(best, later.throughput)
                t = (latency_ns - earlier.latency_ns) / span
                crossing = earlier.throughput + t * (
                    later.throughput - earlier.throughput
                )
                return max(best, crossing)
        return max(best, points[-1].throughput)
