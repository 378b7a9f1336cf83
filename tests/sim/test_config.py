"""Unit tests for simulation configuration dataclasses."""

import pytest

from repro.core.timing import WFA_3CYCLE_TIMING
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)


class TestNetworkConfig:
    def test_defaults_are_the_21364(self):
        config = NetworkConfig()
        assert config.num_nodes == 16
        assert config.clocks.core_ghz == 1.2
        assert config.clocks.link_ghz == 0.8
        assert config.buffer_plan.total_packets() == 316
        assert config.matrix.num_connections == 54

    def test_oversized_network_warns(self):
        with pytest.warns(UserWarning, match="128-processor limit"):
            NetworkConfig(width=12, height=12)

    def test_pipeline_scaling_doubles_clocks_and_latencies(self):
        config = NetworkConfig(width=8, height=8, pipeline_scale=2)
        assert config.effective_clocks.core_ghz == pytest.approx(2.4)
        assert config.effective_clocks.link_ghz == pytest.approx(1.6)
        assert config.effective_link.pin_to_pin_cycles == pytest.approx(26.0)
        # Link-to-core ratio (and so cycles/flit) is preserved.
        assert config.effective_clocks.core_cycles_per_flit_on_link == \
            pytest.approx(1.5)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            NetworkConfig(pipeline_scale=0)


class TestTrafficConfig:
    def test_paper_defaults(self):
        config = TrafficConfig()
        assert config.two_hop_fraction == 0.7
        assert config.mshr_limit == 16
        assert config.memory_latency_ns == 73.0
        assert config.l2_latency_cycles == 25.0

    @pytest.mark.parametrize("kwargs", [
        {"pattern": "tornado"},
        {"injection_rate": 0.0},
        {"two_hop_fraction": 1.5},
        {"mshr_limit": 0},
        {"memory_latency_ns": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficConfig(**kwargs)


class TestSimulationConfig:
    def test_total_cycles(self):
        config = SimulationConfig(warmup_cycles=100, measure_cycles=400)
        assert config.total_cycles == 500

    def test_with_rate_and_algorithm_are_pure(self):
        config = SimulationConfig()
        swept = config.with_rate(0.5).with_algorithm("WFA-rotary")
        assert swept.traffic.injection_rate == 0.5
        assert swept.algorithm == "WFA-rotary"
        assert config.traffic.injection_rate != 0.5
        assert config.algorithm == "SPAA-base"

    def test_arbitration_override_carried(self):
        config = SimulationConfig(arbitration_override=WFA_3CYCLE_TIMING)
        assert config.arbitration_override.latency == 3

    def test_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_cycles=0)


class TestSaturationPlan:
    def test_far_leaner_than_hardware(self):
        plan = saturation_buffer_plan()
        assert plan.total_packets() < 0.2 * 316

    def test_keeps_escape_channels(self):
        plan = saturation_buffer_plan()
        assert plan.escape_capacity == 1
