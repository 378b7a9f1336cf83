"""Scenario generation: determinism, identity, serialization, dimensions."""

import math

import pytest

from repro.chaos.scenario import (
    ChaosScenario,
    INJECTED_DEADLOCK_NAME,
    ScenarioSpace,
    active_fault_dimensions,
    disable_dimension,
    fault_schedule_digest,
    generate_scenarios,
    injected_deadlock_scenario,
)


class TestGeneration:
    def test_same_seed_same_scenarios(self):
        """Acceptance: the scenario list is a pure function of the seed."""
        a = generate_scenarios(7, 12)
        b = generate_scenarios(7, 12)
        assert a == b
        assert [s.digest() for s in a] == [s.digest() for s in b]

    def test_different_seeds_differ(self):
        assert generate_scenarios(7, 12) != generate_scenarios(8, 12)

    def test_space_changes_the_draw(self):
        assert generate_scenarios(7, 8, ScenarioSpace.smoke()) != (
            generate_scenarios(7, 8)
        )

    def test_indices_are_sequential(self):
        assert [s.index for s in generate_scenarios(7, 10)] == list(range(10))

    def test_standalone_scenarios_can_be_excluded(self):
        only_timing = generate_scenarios(7, 30, include_standalone=False)
        assert all(s.kind == "timing" for s in only_timing)
        mixed = generate_scenarios(7, 30)
        assert any(s.kind == "standalone" for s in mixed)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_scenarios(7, 0)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_default_space_draws_only_buildable_patterns(self, seed):
        """The permutation patterns need a power-of-two node count, so a
        3x3 scenario must never draw one (a third of the default space
        used to be unbuildable)."""
        import random

        from repro.network.topology import Torus2D
        from repro.sim.traffic import make_pattern

        scenarios = generate_scenarios(
            seed, 200, ScenarioSpace(), include_standalone=False
        )
        assert {(s.width, s.height) for s in scenarios} == {(2, 2), (3, 3)}
        assert {s.pattern for s in scenarios if s.width == 2} == set(
            ScenarioSpace().patterns
        )
        for scenario in scenarios:
            make_pattern(
                scenario.pattern,
                Torus2D(scenario.width, scenario.height),
                random.Random(0),
            )  # raises ValueError on a pattern the torus cannot host

    def test_random_stalls_are_always_finite(self):
        """Permanent stalls are reserved for the injected probe."""
        for scenario in generate_scenarios(7, 50):
            assert not math.isinf(scenario.stall_cycles)


class TestIdentity:
    def test_digest_is_stable(self):
        scenario = generate_scenarios(7, 1)[0]
        assert scenario.digest() == scenario.digest()
        assert scenario.digest() == ChaosScenario.from_dict(
            scenario.as_dict()
        ).digest()

    def test_default_id_embeds_index_and_digest(self):
        scenario = generate_scenarios(7, 1)[0]
        assert scenario.scenario_id == f"s000-{scenario.digest()[:8]}"

    def test_named_scenario_uses_the_name(self):
        probe = injected_deadlock_scenario(6)
        assert probe.scenario_id == INJECTED_DEADLOCK_NAME

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ChaosScenario(index=0, kind="quantum", algorithm="MCM", seed=1)


class TestSerialization:
    def test_every_generated_scenario_round_trips(self):
        for scenario in generate_scenarios(7, 20):
            restored = ChaosScenario.from_dict(scenario.as_dict())
            assert restored == scenario

    def test_permanent_stall_round_trips_through_json(self):
        """math.inf is not JSON; the record encodes it as "inf"."""
        import json

        probe = injected_deadlock_scenario(0)
        assert math.isinf(probe.stall_cycles)
        wire = json.loads(json.dumps(probe.as_dict()))
        assert wire["stall_cycles"] == "inf"
        restored = ChaosScenario.from_dict(wire)
        assert math.isinf(restored.stall_cycles)
        assert restored.digest() == probe.digest()

    def test_unknown_fields_rejected(self):
        record = generate_scenarios(7, 1)[0].as_dict()
        record["jitter_rate"] = 0.5
        with pytest.raises(ValueError, match="unknown fields"):
            ChaosScenario.from_dict(record)

    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -5.0])
    def test_bad_watchdog_window_rejected_on_load(self, window):
        """The runner's WatchdogConfig check, applied when a record is
        loaded: a bad window is a load error, not a crash outcome."""
        record = injected_deadlock_scenario(0).as_dict()
        record["watchdog_window"] = window
        with pytest.raises(ValueError, match="window_cycles"):
            ChaosScenario.from_dict(record)


class TestFaultDimensions:
    def test_clean_scenario_has_no_dimensions_or_config(self):
        clean = ChaosScenario(index=0, kind="timing", algorithm="MCM", seed=1)
        assert active_fault_dimensions(clean) == ()
        assert clean.fault_config() is None
        assert fault_schedule_digest(clean) is None

    def test_dimensions_reflect_nonzero_rates(self):
        probe = injected_deadlock_scenario(0)
        assert active_fault_dimensions(probe) == ("stall",)
        noisy = ChaosScenario(
            index=0, kind="timing", algorithm="MCM", seed=1,
            flit_drop_rate=1e-3, grant_suppression_rate=0.02,
        )
        assert active_fault_dimensions(noisy) == (
            "flit-drop", "grant-suppression"
        )

    def test_disable_dimension_is_the_shrinking_inverse(self):
        noisy = ChaosScenario(
            index=0, kind="timing", algorithm="MCM", seed=1,
            flit_drop_rate=1e-3, grant_suppression_rate=0.02,
            stall_node=2, stall_cycles=100.0,
        )
        for name in active_fault_dimensions(noisy):
            fewer = disable_dimension(noisy, name)
            assert name not in active_fault_dimensions(fewer)
            assert len(active_fault_dimensions(fewer)) == 2
        with pytest.raises(ValueError, match="unknown fault dimension"):
            disable_dimension(noisy, "gamma-rays")

    def test_schedule_digest_tracks_the_fault_fields_only(self):
        probe = injected_deadlock_scenario(0)
        from dataclasses import replace

        assert fault_schedule_digest(probe) == fault_schedule_digest(
            replace(probe, seed=999, measure_cycles=50)
        )
        assert fault_schedule_digest(probe) != fault_schedule_digest(
            replace(probe, fault_seed=999)
        )

    def test_fault_config_carries_every_active_dimension(self):
        probe = injected_deadlock_scenario(0)
        config = probe.fault_config()
        assert config.stall_node == 0
        assert math.isinf(config.stall_cycles)
        assert config.seed == probe.fault_seed
