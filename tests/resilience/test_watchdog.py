"""Progress watchdog: stall detection, diagnostics, telemetry plumbing."""

import json
import math

import pytest

from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import FaultConfig, FaultInjector, permanent_stall
from repro.resilience.watchdog import (
    DeadlockError,
    ProgressWatchdog,
    WatchdogConfig,
)
from repro.sim.timing_model import NetworkSimulator


class TestWatchdogConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(window_cycles=0)
        with pytest.raises(ValueError):
            WatchdogConfig(action="panic")
        with pytest.raises(ValueError):
            WatchdogConfig(max_snapshots=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_window_is_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WatchdogConfig(window_cycles=bad)


class TestHealthyRuns:
    def test_no_fires_on_a_clean_run(self, tiny_config):
        dog = ProgressWatchdog(WatchdogConfig(window_cycles=300.0))
        sim = NetworkSimulator(tiny_config, watchdog=dog)
        sim.run()
        sim.drain()
        assert dog.clean

    def test_idle_network_is_not_a_stall(self, tiny_config):
        """No deliveries but also no outstanding work: stay quiet."""
        dog = ProgressWatchdog()
        sim = NetworkSimulator(tiny_config)
        sim.run()
        sim.drain()
        assert dog.observe(sim) is None
        assert dog.observe(sim) is None  # delivered unchanged, but idle
        assert dog.clean


class TestStallDetection:
    def test_full_grant_suppression_deadlocks_and_fires(self, tiny_config):
        """Acceptance: a manufactured deadlock is detected, not silent."""
        injector = FaultInjector(FaultConfig(
            seed=2, grant_suppression_rate=1.0
        ))
        dog = ProgressWatchdog(WatchdogConfig(window_cycles=200.0))
        sim = NetworkSimulator(tiny_config, faults=injector, watchdog=dog)
        sim.run()
        assert not sim.drain(max_extra_cycles=2_000.0)
        assert dog.fired > 0
        diag = dog.diagnostics[0]
        assert diag["outstanding"] > 0
        assert diag["routers"], "diagnostic must name the stuck routers"
        entry = diag["routers"][0]
        assert entry["ports"], "per-port occupancy is the point"
        assert json.dumps(diag), "diagnostic must be JSON-serializable"

    def test_permanent_stall_of_one_node_fires(self, tiny_config):
        injector = FaultInjector(permanent_stall(node=0, seed=2))
        dog = ProgressWatchdog(WatchdogConfig(window_cycles=200.0))
        sim = NetworkSimulator(tiny_config, faults=injector, watchdog=dog)
        sim.run()
        sim.drain(max_extra_cycles=2_000.0)
        assert dog.fired > 0

    def test_raise_mode_aborts_the_run(self, tiny_config):
        injector = FaultInjector(FaultConfig(
            seed=2, grant_suppression_rate=1.0
        ))
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=200.0, action="raise"
        ))
        sim = NetworkSimulator(tiny_config, faults=injector, watchdog=dog)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
            sim.drain(max_extra_cycles=5_000.0)
        assert excinfo.value.diagnostic["buffered"] >= 0

    def test_snapshot_cap_respected(self, tiny_config):
        injector = FaultInjector(FaultConfig(
            seed=2, grant_suppression_rate=1.0
        ))
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=100.0, max_snapshots=2
        ))
        sim = NetworkSimulator(tiny_config, faults=injector, watchdog=dog)
        sim.run()
        sim.drain(max_extra_cycles=3_000.0)
        assert dog.fired > 2
        assert len(dog.diagnostics) == 2


class FakeSim:
    """Minimal watchdog subject: scripted progress, countable kicks."""

    def __init__(self):
        self.total_delivered = 0
        self.packets_in_transit = 0
        self.packets_sinking = 0
        self.now = 0.0
        self.routers = []
        self.kicks = 0
        from repro.obs.telemetry import NULL_TELEMETRY

        self.telemetry = NULL_TELEMETRY

    def total_buffered_packets(self):
        return 3

    def total_pending_injections(self):
        return 0

    def recovery_kick(self):
        self.kicks += 1


class TestRemediation:
    def test_kick_that_restores_progress_counts_as_remediated(self):
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=100.0, remediate=True
        ))
        sim = FakeSim()
        assert dog.observe(sim) is None  # baseline tick
        diag = dog.observe(sim)  # stall: kick issued, grace window starts
        assert diag["verdict"] == "kick-issued"
        assert sim.kicks == 1
        assert dog.remediations_attempted == 1
        sim.total_delivered += 1  # the kick worked
        assert dog.observe(sim) is None
        assert dog.remediated == 1
        assert dog.deadlocked == 0

    def test_kick_that_fails_counts_as_deadlocked(self):
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=100.0, remediate=True
        ))
        sim = FakeSim()
        dog.observe(sim)
        assert dog.observe(sim)["verdict"] == "kick-issued"
        diag = dog.observe(sim)  # grace window elapsed, still stuck
        assert diag["verdict"] == "deadlocked"
        assert dog.deadlocked == 1
        assert dog.remediated == 0
        assert sim.kicks == 1, "the kick is one-shot per episode"

    def test_raise_mode_gets_one_grace_window(self):
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=100.0, action="raise", remediate=True
        ))
        sim = FakeSim()
        dog.observe(sim)
        assert dog.observe(sim)["verdict"] == "kick-issued"  # no raise yet
        with pytest.raises(DeadlockError):
            dog.observe(sim)

    def test_episode_rearms_after_remediation(self):
        """A later, unrelated stall gets its own kick."""
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=100.0, remediate=True
        ))
        sim = FakeSim()
        dog.observe(sim)
        dog.observe(sim)  # kick 1
        sim.total_delivered += 1
        dog.observe(sim)  # remediated; state re-armed
        dog.observe(sim)  # stall again -> kick 2
        assert sim.kicks == 2
        assert dog.remediations_attempted == 2

    def test_real_deadlock_survives_the_kick(self, tiny_config):
        """recovery_kick cannot cure a stalled arbiter: deadlocked."""
        injector = FaultInjector(permanent_stall(node=0, seed=2))
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=200.0, remediate=True
        ))
        sim = NetworkSimulator(tiny_config, faults=injector, watchdog=dog)
        sim.run()
        assert not sim.drain(max_extra_cycles=2_000.0)
        assert dog.remediations_attempted == 1
        assert dog.deadlocked >= 1
        assert dog.remediated == 0

    def test_remediation_outcome_lands_in_the_trace(self, tiny_config, tmp_path):
        trace = tmp_path / "kick.jsonl"
        injector = FaultInjector(permanent_stall(node=0, seed=2))
        dog = ProgressWatchdog(WatchdogConfig(
            window_cycles=200.0, remediate=True
        ))
        sim = NetworkSimulator(
            tiny_config,
            telemetry=Telemetry(sink=JsonlSink(trace)),
            faults=injector,
            watchdog=dog,
        )
        sim.run()
        sim.drain(max_extra_cycles=2_000.0)

        from repro.obs.analysis import summarize_trace

        summary = summarize_trace(trace)
        assert summary.event_counts.get("watchdog-remediation", 0) >= 1
        counts = summary.resilience_counts()
        assert counts["watchdog_remediations"] >= 1


class TestTelemetryIntegration:
    def test_watchdog_event_lands_in_the_trace(self, tiny_config, tmp_path):
        """Acceptance: the stall diagnostic is readable via repro obs."""
        trace = tmp_path / "stall.jsonl"
        injector = FaultInjector(FaultConfig(
            seed=2, grant_suppression_rate=1.0
        ))
        dog = ProgressWatchdog(WatchdogConfig(window_cycles=200.0))
        sim = NetworkSimulator(
            tiny_config,
            telemetry=Telemetry(sink=JsonlSink(trace)),
            faults=injector,
            watchdog=dog,
        )
        sim.run()
        # Guarded runs finalize their telemetry at drain(), so the
        # drain-time fires -- where a deadlock actually shows -- land
        # in the trace too.
        sim.drain(max_extra_cycles=2_000.0)

        from repro.obs.analysis import summarize_trace

        summary = summarize_trace(trace)
        assert summary.event_counts.get("watchdog", 0) == dog.fired
        assert summary.watchdog_diagnostics
        assert summary.watchdog_diagnostics[0]["routers"]
        counts = summary.resilience_counts()
        assert counts["watchdog_fires"] == dog.fired
        assert counts["grant_faults"] > 0
        assert counts["drain_warnings"] == 1

        from repro.obs.cli import _render_summary

        text = _render_summary(summary)
        assert "Watchdog stall snapshot" in text
        assert "Resilience" in text
