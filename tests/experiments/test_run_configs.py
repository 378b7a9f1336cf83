"""What every Figure 10/11 panel and claim T1-T3 simulates.

All of them build their runs through ``figure10.panel_config``; these
literal configurations pin each run, so a change to that one builder
shows up here row by row.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.timing import SPAA_TIMING, WFA_3CYCLE_TIMING
from repro.experiments import claims, figure10, figure11
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.metrics import BNFPoint

#: panel c is the paper's 12x12 what-if network, beyond the 128 limit
pytestmark = pytest.mark.filterwarnings("ignore:12x12 exceeds:UserWarning")

#: preset -> (warmup, measure) cycles
CYCLES = {
    "paper": (15_000, 60_000),
    "fast": (3_000, 9_000),
    "smoke": (1_000, 2_000),
}


def expected(preset, width, height, pattern="uniform", mshr_limit=16,
             pipeline_scale=1, rate=0.01, seed=42, **overrides):
    warmup, measure = CYCLES[preset]
    return SimulationConfig(
        algorithm=overrides.pop("algorithm", "SPAA-base"),
        network=NetworkConfig(
            width=width,
            height=height,
            buffer_plan=saturation_buffer_plan(),
            pipeline_scale=pipeline_scale,
        ),
        traffic=TrafficConfig(
            pattern=pattern, injection_rate=rate, mshr_limit=mshr_limit
        ),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
        **overrides,
    )


#: every panel: name, slug, what its config holds
PANEL_RUNS = (
    ("4x4, Random Traffic", "4x4__Random_Traffic", dict(width=4, height=4)),
    ("8x8, Random Traffic", "8x8__Random_Traffic", dict(width=8, height=8)),
    ("8x8, Bit Reversal", "8x8__Bit_Reversal",
     dict(width=8, height=8, pattern="bit-reversal")),
    ("8x8, Perfect Shuffle", "8x8__Perfect_Shuffle",
     dict(width=8, height=8, pattern="perfect-shuffle")),
    ("2x Pipeline, 8x8, Random Traffic", "fig11a",
     dict(width=8, height=8, pipeline_scale=2)),
    ("64 requests, 8x8, Random Traffic", "fig11b",
     dict(width=8, height=8, mshr_limit=64)),
    ("12x12, Random Traffic", "fig11c", dict(width=12, height=12)),
)

ALL_PANELS = figure10.PANELS + figure11.PANELS


@pytest.mark.parametrize("preset", sorted(CYCLES))
@pytest.mark.parametrize("index", range(len(PANEL_RUNS)))
def test_panel_config(index, preset):
    name, slug, fields = PANEL_RUNS[index]
    panel = ALL_PANELS[index]
    assert (panel.name, panel.slug) == (name, slug)
    assert figure10.panel_config(panel, preset, seed=7) == expected(
        preset, seed=7, **fields
    )


class FakeSimulator:
    """Records the config of every run a claim starts, runs nothing."""

    def __init__(self, config):
        self.seen.append(config)

    def bnf_point(self):
        return BNFPoint(0.03, 1.0, 100.0)

    def attach_observer(self, observer):
        pass

    def run(self):
        pass


@pytest.fixture
def seen(monkeypatch):
    configs = []
    monkeypatch.setattr(FakeSimulator, "seen", configs, raising=False)
    monkeypatch.setattr(claims, "NetworkSimulator", FakeSimulator)
    monkeypatch.setattr(claims, "ThroughputTimeline", lambda window_cycles: (
        SimpleNamespace(oscillation=lambda skip: 0.0,
                        dominant_period=lambda skip: None)))
    return configs


@pytest.mark.parametrize("preset", sorted(CYCLES))
def test_t1_configs(seen, preset):
    claims.run_arb_latency_cost(preset, latencies=(3, 8), seed=5)
    base = expected(preset, 8, 8, rate=0.03, seed=5)
    assert seen == [
        replace(base, arbitration_override=replace(SPAA_TIMING, latency=3)),
        replace(base, arbitration_override=replace(SPAA_TIMING, latency=8)),
    ]


@pytest.mark.parametrize("preset", sorted(CYCLES))
def test_t2_configs(monkeypatch, preset):
    swept = []
    monkeypatch.setattr(claims, "sweep_algorithm",
                        lambda config, rates: swept.append((config, rates)))
    claims.run_pipelining_gain(preset, rates=(0.01,), seed=5)
    assert swept == [
        (expected(preset, 8, 8, rate=0.03, seed=5), (0.01,)),
        (expected(preset, 8, 8, rate=0.03, seed=5, algorithm="WFA-base",
                  arbitration_override=WFA_3CYCLE_TIMING), (0.01,)),
    ]


@pytest.mark.parametrize("preset", sorted(CYCLES))
def test_t3_configs(seen, preset):
    result = claims.run_saturation_oscillation(
        preset, sizes=(4, 8), overload_rate=0.2, seed=5
    )
    assert seen == [expected(preset, size, size, rate=0.2, seed=5)
                    for size in (4, 8)]
    assert list(result.by_network) == ["4x4", "8x8"]
