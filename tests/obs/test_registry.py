"""Tests for the labeled-metrics registry."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramSeries,
    MetricsRegistry,
)


class TestCounter:
    def test_unlabeled_increment_and_total(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.total() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("grants_total", label_names=("algorithm",))
        counter.labels("SPAA").inc(3)
        counter.labels("WFA").inc(1)
        assert counter.labels("SPAA").value == 3
        assert counter.labels("WFA").value == 1
        assert counter.total() == 4

    def test_bound_series_is_stable(self):
        counter = Counter("x", label_names=("a",))
        assert counter.labels("v") is counter.labels("v")

    def test_wrong_label_arity_raises(self):
        counter = Counter("x", label_names=("a", "b"))
        with pytest.raises(ValueError):
            counter.labels("only-one")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("")

    def test_snapshot_shape(self):
        counter = Counter("x", help="help text", label_names=("algo",))
        counter.labels("B").inc(2)
        counter.labels("A").inc(1)
        snap = counter.snapshot()
        assert snap["kind"] == "counter"
        assert snap["help"] == "help text"
        assert snap["label_names"] == ["algo"]
        # series sorted by label tuple
        assert snap["series"] == [
            {"labels": ["A"], "value": 1.0},
            {"labels": ["B"], "value": 2.0},
        ]


class TestUnlabeledSeries:
    """Unlabeled metrics (the per-packet counters) resolve their one
    series once, when it is first used -- not per increment, and not
    before: a metric never touched still snapshots with no series."""

    @pytest.mark.parametrize(
        "metric, record, value",
        [
            (Counter("c"), Counter.inc, 6.0),
            (
                Histogram("h", bounds=(1.0,)),
                Histogram.observe,
                {"bounds": [1.0], "bucket_counts": [0, 3], "sum": 6.0, "count": 3},
            ),
        ],
        ids=["counter", "histogram"],
    )
    def test_series_is_created_on_first_use_and_resolved_once(
        self, metric, record, value, monkeypatch
    ):
        assert metric.snapshot()["series"] == []
        resolved = []
        real_labels = type(metric).labels
        monkeypatch.setattr(
            type(metric),
            "labels",
            lambda self, *values: resolved.append(values) or real_labels(self, *values),
        )
        for _ in range(3):
            record(metric, 2.0)
        assert resolved == [()]
        assert metric.snapshot()["series"] == [{"labels": [], "value": value}]


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.labels().value == 2


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram("lat", bounds=(10.0, 100.0))
        series = hist.labels()
        assert isinstance(series, HistogramSeries)
        for value in (5.0, 50.0, 500.0, 7.0):
            series.observe(value)
        assert series.bucket_counts == [2, 1, 1]
        assert series.count == 4
        assert series.total == 562.0
        assert series.mean() == pytest.approx(140.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(10.0, 10.0))
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(10.0, 5.0))

    def test_snapshot_embeds_buckets(self):
        hist = Histogram("lat", bounds=(1.0, 2.0))
        hist.observe(1.5)
        snap = hist.snapshot()
        cell = snap["series"][0]["value"]
        assert cell["bounds"] == [1.0, 2.0]
        assert cell["bucket_counts"] == [0, 1, 0]
        assert cell["sum"] == 1.5
        assert cell["count"] == 1


class TestRegistry:
    def test_create_or_get_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", label_names=("algo",))
        b = registry.counter("hits", label_names=("algo",))
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", label_names=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", label_names=("b",))

    def test_snapshot_covers_all_metrics_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.gauge("a_depth").set(3)
        snap = registry.snapshot()
        assert list(snap) == ["a_depth", "b_total"]
        assert registry.names() == ["a_depth", "b_total"]
        assert registry.get("missing") is None
