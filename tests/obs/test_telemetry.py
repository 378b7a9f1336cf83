"""Tests for the Telemetry facade and the instrumented hot paths."""

import hashlib

import pytest

from repro.core.registry import available_algorithms
from repro.core.types import Nomination
from repro.obs.sink import MemorySink
from repro.obs.telemetry import Telemetry
from repro.resilience.invariants import InvariantChecker
from repro.router.ports import network_rows
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.standalone import StandaloneConfig, StandaloneRouterModel
from repro.sim.timing_model import NetworkSimulator


def small_config(**overrides):
    defaults = dict(
        network=NetworkConfig(width=2, height=2),
        traffic=TrafficConfig(injection_rate=0.01),
        warmup_cycles=200,
        measure_cycles=1_000,
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestTelemetryFacade:
    def test_counters_without_sink(self):
        tel = Telemetry()
        assert not tel.events
        tel.on_arbitration("SPAA-base", nominated=4, granted=3)
        tel.on_arbitration("SPAA-base", nominated=2, granted=2)
        assert tel.arbitration_summary() == {
            "SPAA-base": {"nominations": 6, "grants": 5, "conflicts": 1}
        }

    def test_events_flow_into_an_active_sink(self):
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        assert tel.events
        tel.on_dispatch(1.0, 0, 2, 42, 3, 7.0)
        tel.on_injection(0.5, 1, 42, "request", 0)
        kinds = [r["kind"] for r in sink.records]
        assert kinds == ["grant", "inject"]
        assert tel.port_busy_cycles() == {(0, 3): 7.0}

    def test_finalize_writes_footer_once(self):
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        tel.open_run(small_config())
        tel.finalize(packets_delivered=5)
        tel.finalize(packets_delivered=99)  # idempotent
        kinds = [r["kind"] for r in sink.records]
        assert kinds == ["manifest", "counters", "run-end"]
        end = sink.records[-1]
        assert end["packets_delivered"] == 5
        assert end["wall_time_s"] >= 0.0
        assert sink.closed


class TestArbiterInstrumentation:
    """The caller of ``arbitrate`` records each pass from its inputs and
    its grants; here the caller is the standalone model, fed one fixed
    arbitration."""

    @staticmethod
    def record(algorithm, nominations, free_outputs):
        tel = Telemetry()
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm=algorithm, trials=1), telemetry=tel
        )
        model._generate_free_outputs = lambda trial: free_outputs
        model._build_nominations = lambda packets, free, trial: nominations
        model.run()
        return tel

    def nominations(self):
        return [
            Nomination(row=0, packet=1, outputs=(0,)),
            Nomination(row=1, packet=2, outputs=(0,)),
        ]

    def test_spaa_counts_collision(self):
        tel = self.record("SPAA", self.nominations(), frozenset(range(7)))
        summary = tel.arbitration_summary()["SPAA-base"]
        assert summary == {"nominations": 2, "grants": 1, "conflicts": 1}

    def test_wavefront_counts_all_blocked(self):
        tel = self.record("WFA", self.nominations(), frozenset())
        summary = tel.arbitration_summary()["WFA-base"]
        assert summary == {"nominations": 2, "grants": 0, "conflicts": 2}

    def test_pim1_counts_wasted_grants(self):
        # Two outputs may grant the same row: one grant is wasted.
        nominations = [Nomination(row=0, packet=1, outputs=(0, 1))]
        tel = self.record("PIM1", nominations, frozenset(range(7)))
        wasted = tel.registry.get("pim_wasted_grants_total")
        assert wasted is not None
        assert wasted.total() == 1.0

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_every_algorithm_counts_its_nominations(self, algorithm):
        tel = Telemetry()
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm=algorithm, load=8, trials=40), telemetry=tel
        )
        build, nominated = model._build_nominations, []

        def counting_build(*args):
            nominations = build(*args)
            nominated.append(len(nominations))
            return nominations

        model._build_nominations = counting_build
        stats = model.run()
        summary = tel.arbitration_summary()[model._arbiter.name]
        assert summary["nominations"] == sum(nominated) > 0
        assert summary["grants"] == round(stats.mean * stats.count)
        assert summary["conflicts"] == summary["nominations"] - summary["grants"]

    def test_grants_are_counted_before_fault_injection(self):
        from repro.resilience.faults import FaultConfig

        tel, kept = Telemetry(), []
        StandaloneRouterModel(
            StandaloneConfig(algorithm="PIM1", trials=40),
            telemetry=tel,
            faults=FaultConfig(seed=1, grant_suppression_rate=0.5),
            trial_hook=lambda trial, grants: kept.append(len(grants)),
        ).run()
        assert tel.arbitration_summary()["PIM1"]["grants"] > sum(kept) > 0


class TestSimulatorIntegration:
    def test_timing_run_populates_counters(self):
        tel = Telemetry()
        sim = NetworkSimulator(small_config(), telemetry=tel)
        stats = sim.run()
        summary = tel.arbitration_summary()
        assert "SPAA-base" in summary
        assert summary["SPAA-base"]["grants"] > 0
        deliveries = tel.registry.get("sim_deliveries_total").total()
        assert deliveries >= stats.packets_delivered
        assert tel.port_busy_cycles()

    def test_telemetry_does_not_change_results(self):
        plain = NetworkSimulator(small_config()).bnf_point()
        observed = NetworkSimulator(
            small_config(), telemetry=Telemetry(sink=MemorySink())
        ).bnf_point()
        assert observed == plain
        assert observed.counters  # and it carries the counters

    def test_router_counts_grants_before_fault_injection(self):
        from repro.resilience.faults import FaultConfig

        def grants(faults):
            tel = Telemetry()
            NetworkSimulator(small_config(), telemetry=tel, faults=faults).run()
            arbitrated = tel.arbitration_summary()["SPAA-base"]["grants"]
            return arbitrated, tel.registry.get("router_port_grants_total").total()

        arbitrated, dispatched = grants(None)
        assert arbitrated == dispatched > 0
        arbitrated, dispatched = grants(
            FaultConfig(seed=1, grant_suppression_rate=0.3)
        )
        assert arbitrated > dispatched > 0

    def test_bnf_point_counters_none_without_telemetry(self):
        point = NetworkSimulator(small_config()).bnf_point()
        assert point.counters is None

    def test_antistarvation_engagement_counted(self):
        # A saturated small net with aggressive thresholds must engage
        # draining at least once.
        from repro.core.antistarvation import AntiStarvationConfig
        from repro.sim.config import saturation_buffer_plan

        config = small_config(
            network=NetworkConfig(
                width=2, height=2, buffer_plan=saturation_buffer_plan()
            ),
            traffic=TrafficConfig(injection_rate=0.2),
            antistarvation=AntiStarvationConfig(
                age_threshold=50, drain_threshold=2
            ),
            warmup_cycles=200,
            measure_cycles=2_000,
        )
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        NetworkSimulator(config, telemetry=tel).run()
        engagements = tel.registry.get(
            "router_starvation_engagements_total"
        ).total()
        assert engagements == 146
        # Every transition, as (time, node, old_count, engaged): the
        # old count is the number of nominations flagged starving when
        # draining engages, and 0 when it ends.
        starve = [
            (r["time"], r["node"], r["old_count"], r["engaged"])
            for r in sink.records
            if r["kind"] == "starve"
        ]
        assert starve[:8] == [
            (222.23977313122313, 2, 2, True),
            (238.73977313122316, 2, 0, False),
            (249.73977313122316, 3, 2, True),
            (250.73977313122316, 3, 0, False),
            (253.23977313122313, 0, 3, True),
            (256.23977313122316, 0, 0, False),
            (258.23977313122316, 3, 2, True),
            (260.7397731312231, 0, 2, True),
        ]
        assert len(starve) == 291
        assert sum(engaged for *_, engaged in starve) == engagements
        digest = hashlib.sha256(repr(starve).encode()).hexdigest()[:16]
        assert digest == "056740c31f103ea0"

    def test_standalone_model_wires_arbiter(self):
        tel = Telemetry()
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm="WFA", trials=10), telemetry=tel
        )
        stats = model.run()
        assert stats.count == 10
        summary = tel.arbitration_summary()
        assert summary  # the model recorded the WFA passes
        (algo,) = summary
        assert summary[algo]["nominations"] > 0
        assert tel.manifest is not None
        assert tel.manifest.extra["model"] == "standalone"


class TestNetworkRowsHelper:
    def test_rows_cover_network_ports_only(self):
        rows = network_rows()
        assert rows and all(isinstance(r, int) for r in rows)


class TestFinalizeAtDrain:
    """One rule decides when a run's trace is finalized.

    An unguarded run finalizes -- and closes the sink -- at the end of
    ``run()``, so anything a later ``drain()`` emits (the
    ``drain-warn`` deadlock diagnostic) is dropped.  A guarded run (a
    fault injector, invariant checker or watchdog attached) keeps the
    sink open through ``drain()`` and finalizes there.
    """

    @staticmethod
    def congested_config():
        # Saturating load: work is guaranteed to be outstanding at the
        # window's end, so a zero-budget drain cannot quiesce.
        return small_config(
            traffic=TrafficConfig(injection_rate=0.5), measure_cycles=500
        )

    def test_default_unguarded_run_closes_the_sink_at_run_end(self):
        sink = MemorySink()
        sim = NetworkSimulator(
            self.congested_config(), telemetry=Telemetry(sink=sink)
        )
        sim.run()
        assert sink.closed
        # The documented loss mode: the drain warning never lands.
        assert sim.drain(max_extra_cycles=0.0) is False
        assert sink.by_kind("drain-warn") == []

    def test_finalize_at_drain_keeps_the_sink_open_through_drain(self):
        sink = MemorySink()
        sim = NetworkSimulator(
            self.congested_config(),
            telemetry=Telemetry(sink=sink),
            invariants=InvariantChecker(),
        )
        sim.run()
        assert not sink.closed, "run() must not finalize early"
        assert sim.drain(max_extra_cycles=0.0) is False
        (warning,) = sink.by_kind("drain-warn")
        assert warning["buffered"] + warning["pending"] + warning["in_transit"] > 0
        # drain() finalized: footer written, sink closed.
        assert sink.closed
        assert sink.by_kind("run-end")

    def test_clean_drain_still_finalizes_without_warning(self):
        sink = MemorySink()
        sim = NetworkSimulator(
            small_config(),
            telemetry=Telemetry(sink=sink),
            invariants=InvariantChecker(),
        )
        sim.run()
        assert sim.drain() is True
        assert sink.closed
        assert sink.by_kind("drain-warn") == []
        assert sink.by_kind("run-end")
