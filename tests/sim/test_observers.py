"""Tests for the instrumentation observers."""

import math
from dataclasses import replace

import pytest

from repro.network.packets import Packet, PacketClass
from repro.resilience.invariants import InvariantChecker, InvariantConfig
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_cadence(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            BufferOccupancyProbe(bad)
        with pytest.raises(ValueError, match="finite and positive"):
            ThroughputTimeline(bad)

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
        """All three shipped observers plus an attached invariant
        checker (its tracker and its ticks) leave the run unchanged."""
        config = SimulationConfig(
            network=NetworkConfig(width=2, height=2),
            traffic=TrafficConfig(injection_rate=0.01),
            warmup_cycles=200,
            measure_cycles=1_000,
            seed=3,
        )
        plain_sim = NetworkSimulator(config)
        plain = plain_sim.bnf_point()
        checker = InvariantChecker(InvariantConfig(check_interval_cycles=100.0))
        observed_sim = NetworkSimulator(config, invariants=checker)
        for observer in (
            ThroughputTimeline(100.0),
            BufferOccupancyProbe(100.0),
            PacketTracer(sample_every=3),
        ):
            observed_sim.attach_observer(observer)
        assert observed_sim.bnf_point() == plain
        assert observed_sim.drain() and plain_sim.drain()
        assert observed_sim.total_delivered == plain_sim.total_delivered
        assert checker.checks_run > 10 and checker.clean

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


class TestWatchPath:
    """The one way to watch a run: ``attach_observer`` and its hooks."""

    @staticmethod
    def config():
        return SimulationConfig(
            network=NetworkConfig(width=2, height=2),
            traffic=TrafficConfig(injection_rate=0.02),
            warmup_cycles=200,
            measure_cycles=1_500,
            seed=5,
        )

    def test_on_enter_fires_once_per_buffer_entry(self):
        buffered: set[int] = set()
        counts = {"enter": 0, "dispatch": 0}

        class Enters:
            def on_enter(self, sim, node, port, packet):
                assert packet.uid not in buffered, "entered twice"
                buffer = sim.routers[node].buffers[port]
                assert any(
                    packet in buffer.packets(channel)
                    for channel in buffer.channels_with_waiting()
                )
                buffered.add(packet.uid)
                counts["enter"] += 1

        class Dispatches:
            def on_dispatch(self, sim, router, dispatch):
                buffered.discard(dispatch.packet.uid)
                counts["dispatch"] += 1

        sim = NetworkSimulator(self.config())
        sim.attach_observer(Enters())
        sim.attach_observer(Dispatches())
        sim.run()
        assert counts["enter"] > sim.total_injected  # link arrivals too
        assert counts["enter"] - counts["dispatch"] == sim.total_buffered_packets()
        assert sim.total_buffered_packets() > 0
        assert sim.drain()
        assert counts["enter"] == counts["dispatch"]
        assert not buffered

    def test_hookless_object_attaches_and_changes_nothing(self):
        plain = NetworkSimulator(self.config()).bnf_point()
        sim = NetworkSimulator(self.config())
        sim.attach_observer(object())
        assert sim._on_enter == sim._on_dispatch == sim._on_delivery == []
        assert sim.bnf_point() == plain

    def test_probe_samples_through_drain_then_stops(self):
        deliveries: list[float] = []

        class Deliveries:
            def on_delivery(self, sim, packet):
                deliveries.append(sim.now)

        # A loaded 4x4: the window closes with ~150 packets buffered, so
        # the network never idles between then and the last delivery.
        config = replace(
            self.config(),
            network=NetworkConfig(width=4, height=4),
            traffic=TrafficConfig(injection_rate=0.05),
        )
        sim = NetworkSimulator(config)
        probe = BufferOccupancyProbe(min_interval_cycles=100.0)
        sim.attach_observer(probe)
        sim.attach_observer(Deliveries())
        sim.run()
        during_run = len(probe.samples)
        assert sim.drain()
        assert len(probe.samples) > during_run
        # The probe's ticker outlived the last delivery by less than one
        # interval: its first tick with nothing outstanding was its
        # last, and that tick is the event drain() ended on.
        quiesced_at = deliveries[-1]
        assert quiesced_at < sim.now < quiesced_at + probe.min_interval_cycles
        assert sim.now % probe.min_interval_cycles == 0
        assert sim.queue.pending == 0


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
