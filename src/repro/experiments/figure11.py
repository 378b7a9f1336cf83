"""Figure 11: scaling studies -- deeper pipelines, more misses, bigger nets.

Three panels, each sweeping PIM1, WFA-rotary and SPAA-rotary:

* (a) a pipeline twice as deep at twice the frequency (arbitration
  latencies 8/8/6): SPAA-rotary, being pipelined, wins by >60% at
  ~100 ns;
* (b) 64 outstanding misses per processor (the cancelled 21464's
  figure): SPAA-rotary ~13% over WFA-rotary at ~200 ns;
* (c) a 144-processor 12x12 network (beyond the product's 128 limit):
  SPAA-rotary ~18% over WFA-rotary at ~200 ns, though at extreme load
  WFA-rotary's output-arbiter synchronization lets it keep climbing.

:data:`repro.experiments.claims.CLAIMS` reads them off the curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.figure10 import PRESETS, sweep_panel
from repro.experiments.report import panels_report
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.metrics import BNFCurve
from repro.sim.sweep import SweepGuard

SCALING_ALGORITHMS = ("PIM1", "WFA-rotary", "SPAA-rotary")


@dataclass(frozen=True)
class ScalingPanel:
    key: str
    name: str
    width: int
    height: int
    mshr_limit: int
    pipeline_scale: int
    rates: tuple[float, ...]


PANELS: tuple[ScalingPanel, ...] = (
    ScalingPanel(
        "a", "2x Pipeline, 8x8, Random Traffic", 8, 8,
        mshr_limit=16, pipeline_scale=2,
        rates=(0.004, 0.01, 0.02, 0.04, 0.06, 0.09, 0.13),
    ),
    ScalingPanel(
        "b", "64 requests, 8x8, Random Traffic", 8, 8,
        mshr_limit=64, pipeline_scale=1,
        rates=(0.002, 0.005, 0.01, 0.02, 0.03, 0.045, 0.065),
    ),
    ScalingPanel(
        "c", "12x12, Random Traffic", 12, 12,
        mshr_limit=16, pipeline_scale=1,
        rates=(0.002, 0.005, 0.01, 0.02, 0.03, 0.045, 0.065),
    ),
)


@dataclass
class Figure11Result:
    preset: str
    panels: dict[str, dict[str, BNFCurve]] = field(default_factory=dict)
    panel_specs: dict[str, ScalingPanel] = field(default_factory=dict)


def panel_config(
    panel: ScalingPanel, preset: str = "fast", seed: int = 42
) -> SimulationConfig:
    warmup, measure = PRESETS[preset]
    return SimulationConfig(
        network=NetworkConfig(
            width=panel.width,
            height=panel.height,
            buffer_plan=saturation_buffer_plan(),
            pipeline_scale=panel.pipeline_scale,
        ),
        traffic=TrafficConfig(
            pattern="uniform",
            injection_rate=0.01,
            mshr_limit=panel.mshr_limit,
        ),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )


def run_panel(
    panel: ScalingPanel,
    preset: str = "fast",
    algorithms: tuple[str, ...] = SCALING_ALGORITHMS,
    seed: int = 42,
    progress=None,
    telemetry_dir=None,
    guard: SweepGuard | None = None,
    workers: int = 1,
) -> dict[str, BNFCurve]:
    """Sweep one Figure 11 panel, optionally guarded (see SweepGuard).

    ``workers > 1`` fans the panel's points out over pooled workers;
    per-point results stay bitwise identical to a serial run.
    """
    return sweep_panel(
        f"fig11{panel.key}", panel_config(panel, preset, seed), algorithms,
        panel.rates, progress, telemetry_dir, guard, workers,
    )


def run_figure11(
    preset: str = "fast",
    panels: tuple[ScalingPanel, ...] = PANELS,
    algorithms: tuple[str, ...] = SCALING_ALGORITHMS,
    seed: int = 42,
    progress=None,
    telemetry_dir=None,
    guard: SweepGuard | None = None,
    workers: int = 1,
) -> Figure11Result:
    result = Figure11Result(preset=preset)
    for panel in panels:
        if progress is not None:
            progress(f"--- Figure 11{panel.key}: {panel.name} ---")
        result.panel_specs[panel.name] = panel
        result.panels[panel.name] = run_panel(
            panel, preset, algorithms, seed, progress, telemetry_dir, guard,
            workers,
        )
    return result


def format_figure11(result: Figure11Result) -> str:
    return panels_report({
        f"Figure 11{result.panel_specs[name].key}: {name} "
        f"(preset={result.preset})": curves
        for name, curves in result.panels.items()
    })
