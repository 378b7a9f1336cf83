"""A tiny labeled-metrics registry: counters, gauges and histograms.

The instruments follow the Prometheus data model at arm's length --
monotonic :class:`Counter`, settable :class:`Gauge`, bucketed
:class:`Histogram`, each holding one series per label-value tuple --
but stay plain Python so the simulator's hot path pays only a dict
lookup plus a float add.  Callers that increment the same series
repeatedly should hold on to the bound series object returned by
:meth:`Metric.labels` instead of re-resolving labels every time; that
is what :class:`repro.obs.telemetry.Telemetry` does for the per-algorithm
arbitration counters.
An unlabeled metric holds on to its one series itself.

Snapshots serialize to plain JSON-able dicts, so they can ride in a
JSONL trace (see :mod:`repro.obs.sink`) and be re-read by ``repro obs``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence


class MetricSeries:
    """One (metric, label-values) time series: a mutable float cell."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value


class Metric:
    """Base class: a named family of labeled series."""

    kind = "metric"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        if not name:
            raise ValueError("metric name cannot be empty")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: dict[tuple[str, ...], MetricSeries] = {}
        #: an unlabeled metric's one series, once created: unlabeled
        #: increments (per-packet counters) skip label resolution.
        self._unlabeled: MetricSeries | None = None

    def labels(self, *values: object) -> MetricSeries:
        """The series for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        series = self._series.get(key)
        if series is None:
            series = self._make_series(key)
            self._series[key] = series
            if not key:
                self._unlabeled = series
        return series

    def _make_series(self, key: tuple[str, ...]) -> MetricSeries:
        return MetricSeries(key)

    def snapshot(self) -> dict:
        """A JSON-able dump of every series."""
        return {
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": [
                {"labels": list(series.labels), "value": self._series_value(series)}
                for _, series in sorted(self._series.items())
            ],
        }

    def _series_value(self, series: MetricSeries) -> object:
        return series.value

    def __iter__(self) -> Iterable[MetricSeries]:  # pragma: no cover - debug
        return iter(self._series.values())


class Counter(Metric):
    """Monotonically increasing count (events, cycles, packets)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, *label_values: object) -> None:
        """Unlabeled-or-labeled convenience increment."""
        series = self._unlabeled
        if series is None or label_values:
            series = self.labels(*label_values)
        series.inc(amount)

    def total(self) -> float:
        """Sum over every series (the unlabeled view)."""
        return sum(series.value for series in self._series.values())


class Gauge(Metric):
    """A value that can go up and down (queue depth, draining flag)."""

    kind = "gauge"

    def set(self, value: float, *label_values: object) -> None:
        self.labels(*label_values).set(value)


class HistogramSeries(MetricSeries):
    """Bucketed observations plus sum and count."""

    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, labels: tuple[str, ...], bounds: tuple[float, ...]) -> None:
        super().__init__(labels)
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Histogram(Metric):
    """Fixed-bucket histogram; bounds are upper-inclusive edges."""

    kind = "histogram"

    DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                      500.0, 1000.0, 2500.0, 5000.0)

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> None:
        super().__init__(name, help, label_names)
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = ordered

    def observe(self, value: float, *label_values: object) -> None:
        series = self._unlabeled
        if series is None or label_values:
            series = self.labels(*label_values)
        series.observe(value)

    def _make_series(self, key: tuple[str, ...]) -> HistogramSeries:
        return HistogramSeries(key, self.bounds)

    def _series_value(self, series: MetricSeries) -> object:
        assert isinstance(series, HistogramSeries)
        return {
            "bounds": list(series.bounds),
            "bucket_counts": list(series.bucket_counts),
            "sum": series.total,
            "count": series.count,
        }


class MetricsRegistry:
    """Create-or-get registry keyed by metric name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        bounds: Sequence[float] = Histogram.DEFAULT_BOUNDS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            self._check(existing, Histogram, name, label_names)
            assert isinstance(existing, Histogram)
            return existing
        metric = Histogram(name, help, label_names, bounds)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name, help, label_names):
        existing = self._metrics.get(name)
        if existing is not None:
            self._check(existing, cls, name, label_names)
            return existing
        metric = cls(name, help, label_names)
        self._metrics[name] = metric
        return metric

    @staticmethod
    def _check(existing: Metric, cls, name: str, label_names) -> None:
        if type(existing) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        if existing.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.label_names}"
            )

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able dump of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}
