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

:class:`Panel`, :func:`panel_config` and :func:`run_panel` serve
Figure 11's panels and the in-text claims as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def panel_slug(name: str) -> str:
    """Filesystem-safe directory name for a panel."""
    return "".join(c if c.isalnum() or c in "-x" else "_" for c in name).strip("_")


@dataclass(frozen=True)
class Panel:
    """One subplot of Figure 10 or 11: what its sweep varies.

    Everything else -- the timing model, the buffer plan and the run
    length -- is the same for every panel (see :func:`panel_config`).
    *slug* names the panel's journal and trace directory; it defaults
    to :func:`panel_slug` of the name.
    """

    name: str
    width: int
    height: int
    pattern: str
    rates: tuple[float, ...]
    mshr_limit: int = 16
    pipeline_scale: int = 1
    slug: str = ""

    def __post_init__(self) -> None:
        if not self.slug:
            object.__setattr__(self, "slug", panel_slug(self.name))


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
    """The SimulationConfig one panel sweeps (rate filled per point).

    Figures 10 and 11 and the in-text claims all build their runs here.
    """
    warmup, measure = PRESETS[preset]
    return SimulationConfig(
        network=NetworkConfig(
            width=panel.width,
            height=panel.height,
            buffer_plan=saturation_buffer_plan(),
            pipeline_scale=panel.pipeline_scale,
        ),
        traffic=TrafficConfig(
            pattern=panel.pattern,
            injection_rate=0.01,
            mshr_limit=panel.mshr_limit,
        ),
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
    guard: SweepGuard = SweepGuard(),
) -> dict[str, BNFCurve]:
    """Sweep one panel of Figure 10 or 11 with *guard*'s options.

    The guard is scoped to the panel's slug, so its journal and traces
    land in ``<journal_path>/<slug>.journal.jsonl`` and
    ``<telemetry_dir>/<slug>/`` and identical (algorithm, rate) points
    of different panels never collide.  Every option is described in
    :func:`repro.sim.sweep.sweep_algorithms`; with ``workers > 1`` the
    per-point stats stay bitwise identical to a serial run.
    """
    return sweep_algorithms(
        panel_config(panel, preset, seed), algorithms, panel.rates, progress,
        **guard.scoped(panel.slug).sweep_kwargs(),
    )


def run_figure10(
    preset: str = "fast",
    panels: tuple[Panel, ...] = PANELS,
    algorithms: tuple[str, ...] = TIMING_ALGORITHMS,
    seed: int = 42,
    progress=None,
    guard: SweepGuard = SweepGuard(),
) -> Figure10Result:
    """Regenerate every panel of Figure 10."""
    result = Figure10Result(preset=preset)
    for panel in panels:
        if progress is not None:
            progress(f"--- {panel.name} ---")
        result.panels[panel.name] = run_panel(
            panel, preset, algorithms, seed, progress, guard
        )
    return result


def format_figure10(result: Figure10Result) -> str:
    return panels_report({
        f"Figure 10 panel: {name} (preset={result.preset})": curves
        for name, curves in result.panels.items()
    })
