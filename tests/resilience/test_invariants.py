"""Runtime invariant checking: clean runs stay clean, broken state trips."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.types import Grant, Nomination, SourceKind
from repro.resilience.invariants import (
    ArbitrationInvariants,
    InFlightTracker,
    InvariantChecker,
    InvariantConfig,
    InvariantViolationError,
)
from repro.sim.standalone import StandaloneConfig, StandaloneRouterModel
from repro.sim.timing_model import NetworkSimulator


class TestInvariantConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InvariantConfig(check_interval_cycles=0)
        with pytest.raises(ValueError):
            InvariantConfig(max_wait_cycles=-5.0)

    def test_age_check_can_be_disabled(self):
        assert InvariantConfig(max_wait_cycles=None).max_wait_cycles is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        """Rejected up front: a NaN cadence fails only mid-run, and a NaN
        age bound disables the age check (``wait > nan`` is never true)."""
        with pytest.raises(ValueError, match="check_interval_cycles"):
            InvariantConfig(check_interval_cycles=bad)
        with pytest.raises(ValueError, match="max_wait_cycles"):
            InvariantConfig(max_wait_cycles=bad)


class TestCleanRuns:
    def test_fault_free_run_has_zero_violations(self, quad_config):
        """Acceptance: a clean sweep point under full checking is clean."""
        checker = InvariantChecker(InvariantConfig(check_interval_cycles=250.0))
        sim = NetworkSimulator(quad_config, invariants=checker)
        sim.run()
        assert sim.drain()
        checker.check_network(sim)
        assert checker.checks_run > 4, "periodic cadence never fired"
        assert checker.clean, checker.violations
        checker.raise_if_violated()  # must not raise

    def test_every_timing_algorithm_is_clean(self, tiny_config):
        from repro.core.registry import TIMING_ALGORITHMS

        for algorithm in TIMING_ALGORITHMS:
            checker = InvariantChecker()
            sim = NetworkSimulator(
                tiny_config.with_algorithm(algorithm), invariants=checker
            )
            sim.run()
            sim.drain()
            checker.check_network(sim)
            assert checker.clean, (algorithm, checker.violations)


class TestViolationDetection:
    def test_conservation_breach_detected(self, tiny_config):
        sim = NetworkSimulator(tiny_config)
        sim.run()
        sim.total_injected += 1  # simulate a lost packet
        checker = InvariantChecker()
        found = checker.check_network(sim)
        assert any(v.name == "packet-conservation" for v in found)

    def test_credit_breach_detected(self, tiny_config):
        sim = NetworkSimulator(tiny_config)
        sim.run()
        buffer = next(iter(sim.routers[0].buffers.values()))
        channel = next(iter(buffer._reserved))
        buffer._reserved[channel] = -1  # credit counter gone negative
        checker = InvariantChecker()
        found = checker.check_network(sim)
        assert any(v.name == "buffer-credit" for v in found)

    def test_nomination_index_drift_detected_by_the_full_walk(self, tiny_config):
        sim = NetworkSimulator(tiny_config)
        sim.run()
        checker = InvariantChecker()
        assert checker.check_network(sim, full=True) == []
        router = next(r for r in sim.routers if r.total_buffered())
        port = next(p for p, heads in enumerate(router._heads) if heads)
        router._heads[port].clear()  # the index forgot this port's heads
        found = checker.check_network(sim, full=True)
        assert [v.name for v in found] == ["nomination-index"]
        assert f"node {router.node}" in found[0].detail

    def test_corrupted_wanted_outputs_union_detected(self, tiny_config):
        sim = NetworkSimulator(tiny_config)
        sim.run()
        router = next(r for r in sim.routers if r.total_buffered())
        router._wanted_any ^= 0b1111111  # nominate's early return now lies
        found = InvariantChecker().check_network(sim, full=True)
        assert [v.name for v in found] == ["nomination-index"]
        assert "indexed outputs of all ports" in found[0].detail

    def test_fail_fast_raises_at_the_breach(self, tiny_config):
        sim = NetworkSimulator(tiny_config)
        sim.run()
        sim.total_injected += 1
        checker = InvariantChecker(InvariantConfig(fail_fast=True))
        with pytest.raises(InvariantViolationError):
            checker.check_network(sim)

    def test_error_message_lists_evidence(self, tiny_config):
        sim = NetworkSimulator(tiny_config)
        sim.run()
        sim.total_injected += 3
        checker = InvariantChecker()
        checker.check_network(sim)
        with pytest.raises(InvariantViolationError) as excinfo:
            checker.raise_if_violated()
        assert "packet-conservation" in str(excinfo.value)


#: an overloaded 4x4 run whose closing full walk finds dozens of over-age
#: packets spread over several channels of the same buffers.
_FULL_WALK_SCRIPT = """
from repro.resilience import InvariantChecker, InvariantConfig
from repro.sim import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.timing_model import NetworkSimulator
config = SimulationConfig(
    network=NetworkConfig(width=4, height=4),
    traffic=TrafficConfig(injection_rate=0.05),
    warmup_cycles=200, measure_cycles=800, seed=11,
)
checker = InvariantChecker(
    InvariantConfig(check_interval_cycles=1e9, max_wait_cycles=50.0)
)
NetworkSimulator(config, invariants=checker).run()
for violation in checker.violations:
    print(violation.time, violation.name, violation.detail)
"""


class TestHashSeedIndependence:
    def test_full_walk_reports_in_the_same_order_under_any_hash_seed(self):
        """Spawned sweep workers each get a random PYTHONHASHSEED; the
        violations (and so, under fail_fast, the *first* one) must not
        depend on it."""
        reports = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
            )
            done = subprocess.run(
                [sys.executable, "-c", _FULL_WALK_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            reports.append(done.stdout.splitlines())
        assert len(reports[0]) > 20
        assert reports[0] == reports[1]


class TestInFlightTracker:
    """The incremental checker path (tracker instead of full walks)."""

    @staticmethod
    def fake_packet(uid: int, waiting_since: float = 0.0):
        from types import SimpleNamespace

        return SimpleNamespace(uid=uid, waiting_since=waiting_since)

    @staticmethod
    def fake_port(name: str = "E-in"):
        from types import SimpleNamespace

        return SimpleNamespace(name=name)

    @staticmethod
    def fake_sim(buffered: int):
        from types import SimpleNamespace

        return SimpleNamespace(
            now=0.0, total_buffered_packets=lambda: buffered
        )

    def test_add_discard_len(self):
        tracker = InFlightTracker()
        packet = self.fake_packet(7)
        tracker.add(packet, node=3, port=self.fake_port())
        assert len(tracker) == 1
        tracker.discard(packet)
        assert len(tracker) == 0
        tracker.discard(packet)  # idempotent
        assert not tracker.collisions

    def test_double_add_records_a_collision(self):
        tracker = InFlightTracker()
        packet = self.fake_packet(7)
        tracker.add(packet, node=3, port=self.fake_port("E-in"))
        tracker.add(packet, node=5, port=self.fake_port("W-in"))
        assert tracker.collisions == [(7, (3, "E-in"), (5, "W-in"))]
        # The registry holds one entry; the collision is the evidence.
        assert len(tracker) == 1

    def test_collision_surfaces_as_duplicate_violation(self):
        tracker = InFlightTracker()
        packet = self.fake_packet(7)
        tracker.add(packet, node=3, port=self.fake_port("E-in"))
        tracker.add(packet, node=5, port=self.fake_port("W-in"))
        checker = InvariantChecker()
        found: list = []
        checker._check_tracker(self.fake_sim(buffered=1), tracker, 0.0, found)
        assert any(v.name == "duplicate-in-flight" for v in found)
        assert not tracker.collisions, "collisions must clear once reported"

    def test_registry_buffer_mismatch_detected(self):
        tracker = InFlightTracker()
        tracker.add(self.fake_packet(1), node=0, port=self.fake_port())
        checker = InvariantChecker()
        found: list = []
        checker._check_tracker(self.fake_sim(buffered=3), tracker, 0.0, found)
        assert any(v.name == "inflight-registry" for v in found)

    def test_age_bound_checked_incrementally(self):
        tracker = InFlightTracker()
        tracker.add(
            self.fake_packet(1, waiting_since=0.0),
            node=0,
            port=self.fake_port(),
        )
        checker = InvariantChecker(InvariantConfig(max_wait_cycles=100.0))
        found: list = []
        checker._check_tracker(
            self.fake_sim(buffered=1), tracker, 500.0, found
        )
        assert any(v.name == "anti-starvation-age" for v in found)

    def test_guarded_simulator_maintains_a_tracker(self, tiny_config):
        """The checker subscribes as the simulator's first observer and
        keeps the tracker; the simulator holds none of its own."""
        checker = InvariantChecker()
        guarded = NetworkSimulator(tiny_config, invariants=checker)
        assert checker._sim is guarded
        assert checker._tracker is not None
        assert guarded._on_enter == [checker.on_enter]
        assert guarded._on_dispatch == [checker.on_dispatch]
        assert not hasattr(guarded, "_inflight")
        unguarded = NetworkSimulator(tiny_config)
        assert unguarded._on_enter == unguarded._on_dispatch == []

    def test_incremental_and_full_agree_on_a_clean_run(self, quad_config):
        """Same verdict from both paths at identical sim states."""
        checker = InvariantChecker(InvariantConfig(check_interval_cycles=250.0))
        sim = NetworkSimulator(quad_config, invariants=checker)
        sim.run()
        # Mid-drain state: packets still buffered, both paths clean.
        assert len(checker._tracker) == sim.total_buffered_packets() > 0
        incremental = checker.check_network(sim)
        exhaustive = checker.check_network(sim, full=True)
        assert incremental == [] and exhaustive == []
        assert sim.drain()
        assert len(checker._tracker) == 0
        assert checker.clean

    def test_only_the_watched_simulator_takes_the_incremental_path(
        self, tiny_config
    ):
        """Checking another simulator walks its buffers in full: the
        tracker describes the watched one only."""
        checker = InvariantChecker()
        watched = NetworkSimulator(tiny_config, invariants=checker)
        watched.run()
        checker._tracker.add(
            self.fake_packet(10**9), node=0, port=self.fake_port()
        )
        other = NetworkSimulator(tiny_config)
        other.run()
        assert checker.check_network(other) == []
        found = checker.check_network(watched)
        assert [v.name for v in found] == ["inflight-registry"]

    def test_tracker_desync_is_caught_by_the_periodic_sweep(self, tiny_config):
        """A phantom registry entry (a 'missed hook') trips the check."""
        checker = InvariantChecker()
        sim = NetworkSimulator(tiny_config, invariants=checker)
        sim.run()
        sim.drain()
        checker._tracker.add(
            self.fake_packet(10**9), node=0, port=self.fake_port()
        )
        found = checker.check_network(sim)
        assert any(v.name == "inflight-registry" for v in found)

    def test_a_duplicate_entry_through_the_hook_is_reported(self, quad_config):
        """A packet entering a second buffer while still registered (the
        collision rule) surfaces as duplicate-in-flight at the next
        sweep of the watched simulator."""
        checker = InvariantChecker()
        sim = NetworkSimulator(quad_config, invariants=checker)
        sim.run()
        uid, (node, _, packet) = next(iter(checker._tracker.entries.items()))
        checker.on_enter(sim, (node + 1) % 16, self.fake_port("W-in"), packet)
        found = checker.check_network(sim)
        assert [v.name for v in found] == ["duplicate-in-flight"]
        assert f"packet #{uid}" in found[0].detail


class TestArbitrationInvariants:
    def test_clean_standalone_run(self):
        checker = ArbitrationInvariants()
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm="SPAA-base", trials=300, seed=5),
            invariants=checker,
        )
        model.run()
        assert checker.checks_run == 300
        assert checker.clean

    def test_illegal_matching_trips(self):
        checker = ArbitrationInvariants()
        nomination = Nomination(
            row=0, packet=1, outputs=(2,), source=SourceKind.NETWORK, age=0
        )
        bogus = [Grant(row=0, packet=1, output=3)]  # never nominated output 3
        with pytest.raises(InvariantViolationError):
            checker.check_arbitration(
                [nomination], frozenset({2, 3}), bogus, trial=7
            )
        assert not checker.clean
