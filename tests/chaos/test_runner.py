"""One-scenario execution: classification and digest determinism."""

import pytest

from repro.chaos.runner import ScenarioOutcome, run_scenario
from repro.chaos.scenario import ChaosScenario, injected_deadlock_scenario


def tiny_timing_scenario(**overrides) -> ChaosScenario:
    kwargs = dict(
        index=0,
        kind="timing",
        algorithm="SPAA-base",
        seed=11,
        warmup_cycles=100,
        measure_cycles=400,
        watchdog_window=200.0,
        drain_budget=5_000.0,
    )
    kwargs.update(overrides)
    return ChaosScenario(**kwargs)


class TestOutcome:
    def test_status_validated(self):
        with pytest.raises(ValueError, match="status"):
            ScenarioOutcome(scenario_id="x", status="exploded")

    def test_round_trip_verifies_the_digest(self):
        outcome = ScenarioOutcome(
            scenario_id="x", status="deadlock", detail="stuck",
            metrics={"throughput": 0.1},
        )
        assert ScenarioOutcome.from_dict(outcome.as_dict()) == outcome
        tampered = outcome.as_dict()
        tampered["status"] = "ok"
        with pytest.raises(ValueError, match="digest mismatch"):
            ScenarioOutcome.from_dict(tampered)

    def test_failed_covers_everything_but_ok(self):
        assert not ScenarioOutcome(scenario_id="x", status="ok").failed
        assert ScenarioOutcome(scenario_id="x", status="crash").failed


class TestTimingRuns:
    def test_clean_scenario_is_ok_and_digest_deterministic(self):
        scenario = tiny_timing_scenario()
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.status == "ok"
        assert first.detail == ""
        assert first.metrics["delivered_total"] > 0
        assert first.resilience["drained_clean"] is True
        assert first.digest() == second.digest(), (
            "the same scenario must digest identically on every run"
        )

    def test_tracing_does_not_change_the_outcome(self, tmp_path):
        """Telemetry observes; it must never feed back into the run."""
        scenario = tiny_timing_scenario()
        quiet = run_scenario(scenario)
        traced = run_scenario(scenario, str(tmp_path / "t.jsonl"))
        assert traced.digest() == quiet.digest()
        assert (tmp_path / "t.jsonl").exists()

    def test_injected_deadlock_classifies_as_deadlock(self):
        probe = injected_deadlock_scenario(0)
        outcome = run_scenario(probe)
        assert outcome.status == "deadlock"
        assert "watchdog fired" in outcome.detail
        res = outcome.resilience
        assert res["watchdog_fires"] > 0
        assert res["fault_counts"]["stall-blocked"] > 0
        # remediate=True on the probe: the kick is attempted, cannot
        # cure a stalled arbiter, and the verdict is deadlocked.
        assert res["remediations_attempted"] == 1
        assert res["remediated"] == 0
        assert res["deadlocked"] >= 1
        assert res["drained_clean"] is False


    def test_unbuildable_scenario_is_a_crash_outcome_not_an_exception(self):
        """run_scenario never raises: perfect-shuffle needs a
        power-of-two node count, so the simulator cannot be built."""
        outcome = run_scenario(
            tiny_timing_scenario(pattern="perfect-shuffle", width=3, height=3)
        )
        assert outcome.status == "crash"
        assert "power-of-two" in outcome.detail


class TestStandaloneRuns:
    def test_clean_standalone_scenario_is_ok(self):
        scenario = ChaosScenario(
            index=0, kind="standalone", algorithm="MCM", seed=11, trials=50,
        )
        outcome = run_scenario(scenario)
        assert outcome.status == "ok"
        assert outcome.metrics["mean_matches"] > 0
        assert outcome.metrics["trials"] == 50
        assert outcome.resilience["invariant_checks"] == 50

    def test_suppressed_standalone_still_digests_deterministically(self):
        scenario = ChaosScenario(
            index=0, kind="standalone", algorithm="PIM", seed=11, trials=50,
            fault_seed=5, grant_suppression_rate=0.3,
        )
        a, b = run_scenario(scenario), run_scenario(scenario)
        assert a.digest() == b.digest()
        assert a.resilience["faults_injected"] > 0

    def test_bad_algorithm_is_a_crash_outcome_not_an_exception(self):
        scenario = ChaosScenario(
            index=0, kind="standalone", algorithm="NOPE", seed=1, trials=10,
        )
        outcome = run_scenario(scenario)
        assert outcome.status == "crash"
        assert "NOPE" in outcome.detail
