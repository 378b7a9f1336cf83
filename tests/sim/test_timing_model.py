"""Integration tests for the full-network timing model.

Small configurations (4x4, a few thousand cycles) so the whole module
runs in well under a minute, but exercising every subsystem together:
traffic generation, coherence flows, routing, escape channels, flow
control, arbitration pipelines and statistics.
"""


import pytest

from repro.network.channels import BufferPlan
from repro.network.packets import PacketClass
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.timing_model import NetworkSimulator


def config(**overrides) -> SimulationConfig:
    defaults = dict(
        algorithm="SPAA-base",
        network=NetworkConfig(width=4, height=4),
        traffic=TrafficConfig(injection_rate=0.005),
        warmup_cycles=500,
        measure_cycles=2_000,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestBasicRuns:
    def test_low_load_run_delivers_packets(self):
        stats = NetworkSimulator(config()).run()
        assert stats.packets_delivered > 50
        assert stats.transactions_completed > 10
        assert stats.flits_delivered > stats.packets_delivered

    def test_deterministic_given_seed(self):
        first = NetworkSimulator(config()).bnf_point()
        second = NetworkSimulator(config()).bnf_point()
        assert first == second

    def test_seed_changes_results(self):
        first = NetworkSimulator(config(seed=1)).bnf_point()
        second = NetworkSimulator(config(seed=2)).bnf_point()
        assert first != second

    @pytest.mark.parametrize(
        "algorithm", ["PIM1", "WFA-base", "WFA-rotary", "SPAA-base",
                      "SPAA-rotary"]
    )
    def test_every_timing_algorithm_runs(self, algorithm):
        stats = NetworkSimulator(config(algorithm=algorithm)).run()
        assert stats.packets_delivered > 0

    def test_standalone_only_algorithms_rejected(self):
        with pytest.raises(ValueError, match="standalone"):
            NetworkSimulator(config(algorithm="MCM"))

    @pytest.mark.parametrize("pattern", ["bit-reversal", "perfect-shuffle"])
    def test_permutation_patterns_run(self, pattern):
        cfg = config(traffic=TrafficConfig(injection_rate=0.005,
                                           pattern=pattern))
        stats = NetworkSimulator(cfg).run()
        assert stats.packets_delivered > 0


class TestPhysicalSanity:
    def test_latency_at_least_the_pipeline_minimum(self):
        stats = NetworkSimulator(config()).run()
        # Even a 0-hop packet pays arbitration + local sink + tail:
        # comfortably above 3 ns.
        assert stats.packet_latency_ns.minimum > 3.0
        # And the average at low load sits near the paper's ~45-55 ns
        # unloaded region, far from pathological values.
        assert 20.0 < stats.packet_latency_ns.mean < 120.0

    def test_throughput_below_hard_bound(self):
        """Two local sink ports at 1 flit/cycle: <= 2.4 flits/router/ns."""
        stats = NetworkSimulator(
            config(traffic=TrafficConfig(injection_rate=0.2))
        ).run()
        assert stats.delivered_flits_per_router_ns() < 2.4

    def test_latency_grows_with_load(self):
        light = NetworkSimulator(config()).run()
        heavy = NetworkSimulator(
            config(traffic=TrafficConfig(injection_rate=0.04))
        ).run()
        assert heavy.packet_latency_ns.mean > light.packet_latency_ns.mean

    def test_transaction_latency_includes_memory_time(self):
        stats = NetworkSimulator(config()).run()
        # A transaction is two network traversals plus 73 ns of memory.
        assert stats.transaction_latency_ns.mean > \
            stats.packet_latency_ns.mean + 73.0

    def test_mshr_throttling_reported_at_high_load(self):
        stats = NetworkSimulator(
            config(traffic=TrafficConfig(injection_rate=0.5, mshr_limit=2))
        ).run()
        assert stats.transactions_throttled > 0


class TestConservation:
    def test_everything_drains_after_injection_stops(self):
        sim = NetworkSimulator(config())
        sim.run()
        sim.drain()
        assert sim.engine.outstanding_transactions == 0
        assert sim.total_buffered_packets() == 0
        assert sim.total_pending_injections() == 0

    def test_drains_even_under_heavy_load_with_tiny_buffers(self):
        """Flow control + escape channels: no deadlock, no packet loss."""
        tiny = BufferPlan(adaptive_capacity={
            PacketClass.REQUEST: 1,
            PacketClass.FORWARD: 1,
            PacketClass.BLOCK_RESPONSE: 1,
            PacketClass.NONBLOCK_RESPONSE: 1,
        })
        cfg = config(
            network=NetworkConfig(width=4, height=4, buffer_plan=tiny),
            traffic=TrafficConfig(injection_rate=0.1),
            measure_cycles=1_500,
        )
        sim = NetworkSimulator(cfg)
        sim.run()
        sim.drain()
        assert sim.engine.outstanding_transactions == 0
        assert sim.total_buffered_packets() == 0

    def test_flit_accounting_consistent_with_mix(self):
        stats = NetworkSimulator(config()).run()
        mean_flits = stats.flits_delivered / stats.packets_delivered
        # Mix of 3-flit requests/forwards and 19-flit responses.
        assert 3.0 < mean_flits < 19.0


class TestPaperShape:
    def test_spaa_beats_wfa_on_4x4_under_load(self):
        """The Figure 10 headline, pinned at small scale."""
        rate = 0.04
        spaa = NetworkSimulator(
            config(algorithm="SPAA-base",
                   traffic=TrafficConfig(injection_rate=rate),
                   measure_cycles=4_000)
        ).bnf_point()
        wfa = NetworkSimulator(
            config(algorithm="WFA-base",
                   traffic=TrafficConfig(injection_rate=rate),
                   measure_cycles=4_000)
        ).bnf_point()
        assert spaa.throughput > wfa.throughput

    def test_rotary_rescues_saturated_8x8(self):
        results = {}
        for algorithm in ("SPAA-base", "SPAA-rotary"):
            cfg = SimulationConfig(
                algorithm=algorithm,
                network=NetworkConfig(width=8, height=8,
                                      buffer_plan=saturation_buffer_plan()),
                traffic=TrafficConfig(injection_rate=0.06),
                warmup_cycles=1_000,
                measure_cycles=2_000,
                seed=7,
            )
            results[algorithm] = NetworkSimulator(cfg).bnf_point().throughput
        assert results["SPAA-rotary"] > results["SPAA-base"]

    def test_deeper_pipeline_preserves_spaa_advantage(self):
        cfg = config(
            network=NetworkConfig(width=4, height=4, pipeline_scale=2),
            traffic=TrafficConfig(injection_rate=0.08),
            measure_cycles=3_000,
        )
        spaa = NetworkSimulator(cfg.with_algorithm("SPAA-rotary")).bnf_point()
        wfa = NetworkSimulator(cfg.with_algorithm("WFA-rotary")).bnf_point()
        assert spaa.throughput > wfa.throughput

    def test_window_ns_scales_with_clock(self):
        base = NetworkSimulator(config())
        deep = NetworkSimulator(
            config(network=NetworkConfig(width=4, height=4, pipeline_scale=2))
        )
        base.run(), deep.run()
        assert deep.stats.window_ns == pytest.approx(base.stats.window_ns / 2)


class TestDrainFlag:
    def test_clean_drain_returns_true_and_records(self):
        sim = NetworkSimulator(config())
        sim.run()
        assert sim.drained_clean is None  # not drained yet
        assert sim.drain() is True
        assert sim.drained_clean is True

    def test_exhausted_drain_returns_false_and_warns(self):
        from repro.obs.sink import MemorySink
        from repro.obs.telemetry import Telemetry
        from repro.resilience.faults import FaultConfig, FaultInjector

        telemetry = Telemetry(sink=MemorySink())
        sim = NetworkSimulator(
            config(),
            telemetry=telemetry,
            faults=FaultInjector(
                FaultConfig(seed=1, grant_suppression_rate=1.0)
            ),
        )
        sim.run()
        assert sim.drain(max_extra_cycles=1_000.0) is False
        assert sim.drained_clean is False
        kinds = [record.get("kind") for record in telemetry.sink.records]
        assert "drain-warn" in kinds


class TestTickSchedule:
    """Every periodic tick runs on one ticker under one stop rule.

    A guarded 4x4 run with all three simulator ticks sharing cycles
    (invariants every 250, a remediating watchdog every 500, the
    heartbeat every 1000) and a stalled router, so the watchdog fires
    and its recovery kick changes state.  A tick reordered at a shared
    cycle, or one that stopped early or late, moves these literals.
    """

    def test_guarded_run_and_drain_are_pinned(self, tmp_path):
        import hashlib
        import json

        from repro.obs.sink import JsonlSink
        from repro.obs.telemetry import Telemetry
        from repro.resilience.faults import FaultConfig, FaultInjector
        from repro.resilience.invariants import InvariantChecker, InvariantConfig
        from repro.resilience.watchdog import ProgressWatchdog, WatchdogConfig

        faults = FaultInjector(FaultConfig(
            seed=9, flit_drop_rate=2e-3, flit_corrupt_rate=1e-3,
            stall_node=5, stall_start_cycle=1_500.0, stall_cycles=3_000.0,
        ))
        checker = InvariantChecker(InvariantConfig(check_interval_cycles=250.0))
        dog = ProgressWatchdog(WatchdogConfig(window_cycles=500.0, remediate=True))
        beats = []
        trace = tmp_path / "guarded.jsonl"
        sim = NetworkSimulator(
            config(
                traffic=TrafficConfig(injection_rate=0.02),
                measure_cycles=3_000,
                seed=11,
            ),
            telemetry=Telemetry(sink=JsonlSink(trace)),
            faults=faults,
            invariants=checker,
            watchdog=dog,
            heartbeat=lambda: beats.append(sim.now),
        )
        point = sim.bnf_point()
        assert sim.drain() is True

        assert (
            point.throughput, point.latency_ns, point.packets_delivered
        ) == (0.447825, 67.66868329239979, 1811)
        assert point.transaction_latency_ns == 230.3993994955843
        assert sim.drained_clean is True
        assert sim.queue.now == 6000.0
        assert (checker.checks_run, checker.violations) == (25, [])
        assert (
            dog.fired, dog.remediations_attempted, dog.remediated, dog.deadlocked
        ) == (1, 1, 1, 0)
        assert len(beats) == 7
        records = [
            line
            for line in trace.read_text().splitlines()
            if json.loads(line)["kind"] not in ("manifest", "run-end")
        ]
        assert hashlib.sha256("\n".join(records).encode()).hexdigest() == (
            "1b732d012009dd61629615a572527af7350c29961e06f74d01e58212cb3f9b88"
        )
