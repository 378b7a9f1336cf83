"""Figure 10: BNF latency/throughput curves for the timing model.

Four panels -- 4x4 random, 8x8 random, 8x8 bit-reversal and 8x8
perfect-shuffle -- each sweeping offered load for the five timing-
capable algorithms (PIM1, WFA-base, WFA-rotary, SPAA-base,
SPAA-rotary).  Headline paper claims this regenerates:

* SPAA-base beats PIM1/WFA-base by ~11% on 4x4 (at ~83 ns) and ~24%
  on 8x8 (at ~122 ns);
* PIM1 and WFA-base track each other;
* beyond saturation the base policies' delivered throughput collapses
  while the Rotary-Rule variants keep climbing (+16% WFA, +43% SPAA
  at ~280 ns on 8x8).

:data:`repro.experiments.claims.CLAIMS` reads them off the curves.
The sweeps run on the saturation-calibrated buffer plan (see
``repro.sim.config.saturation_buffer_plan``), which our model needs
for back-pressure to bind at the paper's saturation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.registry import TIMING_ALGORITHMS
from repro.experiments.report import panels_report
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.metrics import BNFCurve
from repro.sim.sweep import SweepGuard, sweep_algorithms


@dataclass(frozen=True)
class Panel:
    """One subplot of Figure 10."""

    name: str
    width: int
    height: int
    pattern: str
    rates: tuple[float, ...]


_RATES = (0.002, 0.005, 0.01, 0.02, 0.03, 0.045, 0.065)

PANELS: tuple[Panel, ...] = (
    Panel("4x4, Random Traffic", 4, 4, "uniform", _RATES),
    Panel("8x8, Random Traffic", 8, 8, "uniform", _RATES),
    Panel("8x8, Bit Reversal", 8, 8, "bit-reversal", _RATES),
    Panel("8x8, Perfect Shuffle", 8, 8, "perfect-shuffle", _RATES),
)

#: (warmup, measure) cycles per preset; "paper" matches the 75 000-cycle
#: runs of section 4.3.  Figure 11 and the in-text claims use the same
#: table.
PRESETS: dict[str, tuple[int, int]] = {
    "paper": (15_000, 60_000),
    "fast": (3_000, 9_000),
    "smoke": (1_000, 2_000),
}


@dataclass
class Figure10Result:
    preset: str
    panels: dict[str, dict[str, BNFCurve]] = field(default_factory=dict)


def panel_config(panel: Panel, preset: str = "fast", seed: int = 42) -> SimulationConfig:
    """The SimulationConfig one panel sweeps (rate filled per point)."""
    warmup, measure = PRESETS[preset]
    return SimulationConfig(
        network=NetworkConfig(
            width=panel.width,
            height=panel.height,
            buffer_plan=saturation_buffer_plan(),
        ),
        traffic=TrafficConfig(pattern=panel.pattern, injection_rate=0.01),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )


def run_panel(
    panel: Panel,
    preset: str = "fast",
    algorithms: tuple[str, ...] = TIMING_ALGORITHMS,
    seed: int = 42,
    progress=None,
    telemetry_dir=None,
    guard: SweepGuard | None = None,
    workers: int = 1,
) -> dict[str, BNFCurve]:
    """Sweep one Figure 10 panel.

    With *telemetry_dir* set, every BNF point writes a JSONL telemetry
    trace under ``<telemetry_dir>/<panel-slug>/`` and carries its
    arbiter counters (see :mod:`repro.obs`).  With a *guard* (see
    :class:`repro.sim.sweep.SweepGuard`) every point runs with fault
    injection / invariant checking / watchdog / checkpointing attached;
    the journal is scoped per panel.  With ``workers > 1`` the panel's
    (algorithm, rate) points run on pooled workers (see
    :func:`repro.sim.sweep.sweep_algorithms`) with bitwise identical
    per-point stats.
    """
    return sweep_panel(
        panel_slug(panel.name), panel_config(panel, preset, seed), algorithms,
        panel.rates, progress, telemetry_dir, guard, workers,
    )


def sweep_panel(
    slug: str,
    config: SimulationConfig,
    algorithms: tuple[str, ...],
    rates: tuple[float, ...],
    progress,
    telemetry_dir,
    guard: SweepGuard | None,
    workers: int,
) -> dict[str, BNFCurve]:
    """Sweep one figure panel (Figure 10 or 11) under its own *slug*.

    The slug names the panel's trace directory under *telemetry_dir*
    and its journal under the guard's journal directory, so identical
    (algorithm, rate) points of different panels never collide.
    """
    if telemetry_dir is not None:
        telemetry_dir = Path(telemetry_dir) / slug
    return sweep_algorithms(
        config,
        algorithms,
        rates,
        progress,
        telemetry_dir=telemetry_dir,
        workers=workers,
        **(guard.scoped(slug).sweep_kwargs() if guard else {}),
    )


def panel_slug(name: str) -> str:
    """Filesystem-safe directory name for a panel."""
    return "".join(c if c.isalnum() or c in "-x" else "_" for c in name).strip("_")


def run_figure10(
    preset: str = "fast",
    panels: tuple[Panel, ...] = PANELS,
    algorithms: tuple[str, ...] = TIMING_ALGORITHMS,
    seed: int = 42,
    progress=None,
    telemetry_dir=None,
    guard: SweepGuard | None = None,
    workers: int = 1,
) -> Figure10Result:
    """Regenerate every panel of Figure 10."""
    result = Figure10Result(preset=preset)
    for panel in panels:
        if progress is not None:
            progress(f"--- {panel.name} ---")
        result.panels[panel.name] = run_panel(
            panel, preset, algorithms, seed, progress, telemetry_dir, guard,
            workers,
        )
    return result


def format_figure10(result: Figure10Result) -> str:
    return panels_report({
        f"Figure 10 panel: {name} (preset={result.preset})": curves
        for name, curves in result.panels.items()
    })
