"""Tests for the instrumentation observers."""

import math

import pytest

from repro.network.packets import Packet, PacketClass
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.observers import (
    BufferOccupancyProbe,
    PacketTracer,
    ThroughputTimeline,
)
from repro.sim.timing_model import NetworkSimulator


class FakeSimulator:
    def __init__(self):
        self.now = 0.0

    def total_buffered_packets(self):
        return 5


class FakeRouter:
    node = 3


class FakeDispatch:
    def __init__(self, packet):
        self.packet = packet
        self.grant_time = 0.0
        self.service_cycles = 4.5

        class Plan:
            output = 2
            target_channel = None

        self.plan = Plan()


class TestThroughputTimeline:
    def test_windows_accumulate_flits(self):
        timeline = ThroughputTimeline(window_cycles=100.0)
        sim = FakeSimulator()
        packet = Packet(PacketClass.REQUEST, 0, 1)
        sim.now = 50.0
        timeline.on_delivery(sim, packet)
        sim.now = 250.0
        timeline.on_delivery(sim, packet)
        assert timeline.windows == [3, 0, 3]

    def test_oscillation_flat_series_is_zero(self):
        timeline = ThroughputTimeline(100.0)
        timeline.windows = [10, 10, 10, 10]
        assert timeline.oscillation() == 0.0

    def test_oscillation_alternating_series(self):
        timeline = ThroughputTimeline(100.0)
        timeline.windows = [0, 20] * 10
        assert timeline.oscillation() == pytest.approx(
            math.sqrt(20 * 20 * 0.25 * 20 / 19) / 10, rel=0.05
        )

    def test_dominant_period_of_a_square_wave(self):
        timeline = ThroughputTimeline(100.0)
        timeline.windows = ([0] * 5 + [20] * 5) * 6
        period = timeline.dominant_period()
        assert period is not None
        assert 8 <= period <= 12  # true period: 10 windows

    def test_dominant_period_none_for_noiseless_flat(self):
        timeline = ThroughputTimeline(100.0)
        timeline.windows = [7] * 40
        assert timeline.dominant_period() is None

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ThroughputTimeline(0.0)


class TestBufferOccupancyProbe:
    def test_samples_with_min_interval(self):
        probe = BufferOccupancyProbe(min_interval_cycles=100.0)
        sim = FakeSimulator()
        dispatch = FakeDispatch(Packet(PacketClass.REQUEST, 0, 1))
        for now in (0.0, 10.0, 99.0, 100.0, 150.0, 230.0):
            sim.now = now
            probe.on_dispatch(sim, FakeRouter(), dispatch)
        times = [t for t, _ in probe.samples]
        assert times == [0.0, 100.0, 230.0]
        assert probe.peak() == 5
        assert probe.mean() == 5.0

    def test_empty_probe(self):
        probe = BufferOccupancyProbe()
        assert probe.peak() == 0
        assert probe.mean() == 0.0


class TestPacketTracer:
    def test_sampling_by_uid(self):
        tracer = PacketTracer(sample_every=2)
        sim = FakeSimulator()
        even = Packet(PacketClass.REQUEST, 0, 1)
        # Force known uids by constructing until parity matches.
        while even.uid % 2 != 0:
            even = Packet(PacketClass.REQUEST, 0, 1)
        odd = Packet(PacketClass.REQUEST, 0, 1)
        tracer.on_dispatch(sim, FakeRouter(), FakeDispatch(even))
        tracer.on_dispatch(sim, FakeRouter(), FakeDispatch(odd))
        assert even.uid in tracer.traces
        assert odd.uid not in tracer.traces

    def test_trace_records_hops_and_delivery(self):
        tracer = PacketTracer(sample_every=1)
        sim = FakeSimulator()
        packet = Packet(PacketClass.REQUEST, 0, 1)
        tracer.on_dispatch(sim, FakeRouter(), FakeDispatch(packet))
        sim.now = 42.0
        tracer.on_delivery(sim, packet)
        trace = tracer.traces[packet.uid]
        assert trace.hop_count == 1
        assert trace.hops[0].node == 3
        assert trace.delivered_at == 42.0
        assert tracer.longest() is trace

    def test_max_traces_cap(self):
        tracer = PacketTracer(sample_every=1, max_traces=2)
        sim = FakeSimulator()
        for _ in range(5):
            packet = Packet(PacketClass.REQUEST, 0, 1)
            tracer.on_dispatch(sim, FakeRouter(), FakeDispatch(packet))
        assert len(tracer.traces) == 2

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            PacketTracer(sample_every=0)


class TestIntegration:
    def test_observers_attached_to_a_real_run(self):
        config = SimulationConfig(
            network=NetworkConfig(width=2, height=2),
            traffic=TrafficConfig(injection_rate=0.01),
            warmup_cycles=200,
            measure_cycles=1_500,
            seed=3,
        )
        sim = NetworkSimulator(config)
        timeline = ThroughputTimeline(window_cycles=200.0)
        probe = BufferOccupancyProbe(100.0)
        tracer = PacketTracer(sample_every=3)
        for observer in (timeline, probe, tracer):
            sim.attach_observer(observer)
        sim.run()
        assert sum(timeline.windows) > 0
        assert probe.samples
        assert tracer.completed()
        # Hop counts match the torus: on a 2x2, at most 2 hops.
        for trace in tracer.completed():
            assert trace.hop_count <= 3

    def test_observers_do_not_change_results(self):
        config = SimulationConfig(
            network=NetworkConfig(width=2, height=2),
            traffic=TrafficConfig(injection_rate=0.01),
            warmup_cycles=200,
            measure_cycles=1_000,
            seed=3,
        )
        plain = NetworkSimulator(config).bnf_point()
        observed_sim = NetworkSimulator(config)
        observed_sim.attach_observer(ThroughputTimeline(100.0))
        assert observed_sim.bnf_point() == plain

    def test_sampled_packets_do_not_depend_on_earlier_runs(self):
        """Packet ids are numbered per run: back-to-back runs of one
        config sample the same packets (they did not while the uid
        counter was process-global)."""
        config = SimulationConfig(
            network=NetworkConfig(width=2, height=2),
            traffic=TrafficConfig(injection_rate=0.01),
            warmup_cycles=200,
            measure_cycles=1_000,
            seed=3,
        )

        def sampled():
            sim = NetworkSimulator(config)
            tracer = PacketTracer(sample_every=7)
            sim.attach_observer(tracer)
            sim.run()
            return tracer.traces

        first, second = sampled(), sampled()
        assert first and min(first) == 0
        assert first == second

    def test_observers_through_a_real_sweep(self):
        """All three observers ride a sweep via observer_factory."""
        from repro.sim.sweep import sweep_algorithm

        config = SimulationConfig(
            network=NetworkConfig(width=2, height=2),
            traffic=TrafficConfig(injection_rate=0.01),
            warmup_cycles=200,
            measure_cycles=1_000,
            seed=3,
        )
        per_point: dict[float, tuple] = {}

        def factory(algorithm, rate):
            observers = (
                ThroughputTimeline(window_cycles=200.0),
                BufferOccupancyProbe(100.0),
                PacketTracer(sample_every=3),
            )
            per_point[rate] = observers
            return observers

        curve = sweep_algorithm(
            config, [0.005, 0.01], observer_factory=factory
        )
        assert len(curve.points) == 2
        assert set(per_point) == {0.005, 0.01}
        for timeline, probe, tracer in per_point.values():
            assert sum(timeline.windows) > 0
            assert probe.samples
            assert tracer.completed()


class TestSaturatedNetwork:
    """Section 3.4: the clog/clear oscillation and its observability."""

    def saturated_config(self, measure_cycles=9_000):
        from repro.sim.config import saturation_buffer_plan

        return SimulationConfig(
            algorithm="SPAA-base",
            network=NetworkConfig(
                width=4, height=4, buffer_plan=saturation_buffer_plan()
            ),
            traffic=TrafficConfig(injection_rate=0.1),
            warmup_cycles=3_000,
            measure_cycles=measure_cycles,
            seed=42,
        )

    def test_dominant_period_on_saturated_rotary_off_run(self):
        """A saturated SPAA-base run shows a discernible throughput cycle."""
        config = self.saturated_config()
        simulator = NetworkSimulator(config)
        timeline = ThroughputTimeline(window_cycles=500.0)
        simulator.attach_observer(timeline)
        simulator.run()
        skip = int(config.warmup_cycles // 500.0)
        assert timeline.oscillation(skip) > 0.02
        period = timeline.dominant_period(skip)
        assert period is not None
        assert 2 <= period <= 20

    def test_probe_keeps_sampling_when_network_clogs(self):
        """Cycle-driven sampling covers the run even through clogs.

        The old dispatch-driven probe stopped sampling whenever the
        network stopped dispatching -- exactly the clogged intervals
        the occupancy series exists to show.
        """
        config = self.saturated_config(measure_cycles=5_000)
        simulator = NetworkSimulator(config)
        probe = BufferOccupancyProbe(min_interval_cycles=250.0)
        simulator.attach_observer(probe)
        simulator.run()
        total_cycles = config.warmup_cycles + config.measure_cycles
        expected = total_cycles / probe.min_interval_cycles
        # Timer-driven ticks guarantee near-complete coverage.
        assert len(probe.samples) >= expected * 0.8
        # Samples keep a steady cadence: no gap much larger than the
        # interval (the dispatch-driven version had unbounded gaps).
        times = [t for t, _ in probe.samples]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) <= probe.min_interval_cycles * 2.5
        assert probe.peak() > 0

    def test_probe_timer_stops_at_window_end(self):
        config = self.saturated_config(measure_cycles=2_000)
        simulator = NetworkSimulator(config)
        probe = BufferOccupancyProbe(min_interval_cycles=500.0)
        simulator.attach_observer(probe)
        simulator.run()
        assert all(
            t <= simulator.window_end_cycles for t, _ in probe.samples
        )
