"""Failure shrinking: strictly fewer dimensions, shorter runs."""

import json

import pytest

from repro.chaos.runner import ScenarioOutcome
from repro.chaos.scenario import (
    ChaosScenario,
    active_fault_dimensions,
    injected_deadlock_scenario,
)
from repro.chaos.shrink import (
    MIN_MEASURE_CYCLES,
    MIN_TRIALS,
    shrink_scenario,
    write_minimal,
)


def stall_only_oracle(scenario: ChaosScenario) -> ScenarioOutcome:
    """A model failure: only the stall dimension matters."""
    status = "deadlock" if "stall" in active_fault_dimensions(scenario) else "ok"
    return ScenarioOutcome(scenario_id=scenario.scenario_id, status=status)


def noisy_deadlock(**overrides) -> ChaosScenario:
    """The injected deadlock dragging along two extraneous dimensions."""
    from dataclasses import replace

    probe = injected_deadlock_scenario(0)
    return replace(
        probe,
        flit_drop_rate=2e-3,
        grant_suppression_rate=0.02,
        **overrides,
    )


class TestShrinkAlgorithm:
    def test_extraneous_dimensions_are_stripped(self):
        scenario = noisy_deadlock()
        assert len(active_fault_dimensions(scenario)) == 3
        minimal, steps = shrink_scenario(scenario, run=stall_only_oracle)
        assert active_fault_dimensions(minimal) == ("stall",)
        assert len(active_fault_dimensions(minimal)) < len(
            active_fault_dimensions(scenario)
        )
        assert any(s["kept"] for s in steps)
        assert all(set(s) == {"action", "status", "kept"} for s in steps)

    def test_duration_shrinks_to_the_floor_when_failure_persists(self):
        minimal, _ = shrink_scenario(
            noisy_deadlock(measure_cycles=1600), run=stall_only_oracle
        )
        assert MIN_MEASURE_CYCLES <= minimal.measure_cycles < 400

    def test_standalone_scenarios_shrink_trials(self):
        scenario = ChaosScenario(
            index=0, kind="standalone", algorithm="PIM", seed=1, trials=160,
            stall_node=0, stall_start_cycle=0.0, stall_cycles=5.0,
            grant_suppression_rate=0.5,
        )
        minimal, _ = shrink_scenario(scenario, run=stall_only_oracle)
        assert active_fault_dimensions(minimal) == ("stall",)
        assert MIN_TRIALS <= minimal.trials < scenario.trials

    def test_load_bearing_dimensions_survive(self):
        def two_dim_oracle(scenario: ChaosScenario) -> ScenarioOutcome:
            dims = active_fault_dimensions(scenario)
            status = (
                "invariant-violation"
                if "stall" in dims and "flit-drop" in dims
                else "ok"
            )
            return ScenarioOutcome(
                scenario_id=scenario.scenario_id, status=status
            )

        minimal, _ = shrink_scenario(noisy_deadlock(), run=two_dim_oracle)
        assert set(active_fault_dimensions(minimal)) == {
            "stall", "flit-drop"
        }

    def test_shrinking_a_passing_scenario_is_an_error(self):
        clean = ChaosScenario(index=0, kind="timing", algorithm="MCM", seed=1)
        with pytest.raises(ValueError, match="does not fail"):
            shrink_scenario(clean, run=stall_only_oracle)


class TestRealShrink:
    def test_real_deadlock_shrinks_to_strictly_fewer_dimensions(self):
        """Acceptance: delta-debugging a real failure drops the noise
        dimensions and keeps the stall that actually deadlocks."""
        scenario = noisy_deadlock(
            warmup_cycles=100,
            measure_cycles=400,
            watchdog_window=200.0,
            drain_budget=3_000.0,
        )
        minimal, steps = shrink_scenario(scenario, target_status="deadlock")
        assert "stall" in active_fault_dimensions(minimal)
        assert len(active_fault_dimensions(minimal)) < len(
            active_fault_dimensions(scenario)
        )
        assert minimal.measure_cycles <= scenario.measure_cycles
        assert steps, "every attempt must be logged"


class TestMinimalRecord:
    def test_minimal_json_rebuilds_the_scenario(self, tmp_path):
        minimal, steps = shrink_scenario(
            noisy_deadlock(), run=stall_only_oracle
        )
        path = write_minimal(tmp_path, minimal, steps, "deadlock")
        record = json.loads(path.read_text())
        assert record["kind"] == "chaos-minimal"
        assert record["target_status"] == "deadlock"
        assert record["active_dimensions"] == ["stall"]
        restored = ChaosScenario.from_dict(record["scenario"])
        assert restored == minimal
        assert record["scenario_digest"] == minimal.digest()
        assert record["steps"] == steps
