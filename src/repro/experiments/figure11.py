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

from repro.experiments.figure10 import Panel, run_panel
from repro.experiments.report import panels_report
from repro.sim.metrics import BNFCurve
from repro.sim.sweep import SweepGuard

SCALING_ALGORITHMS = ("PIM1", "WFA-rotary", "SPAA-rotary")

_RATES = (0.002, 0.005, 0.01, 0.02, 0.03, 0.045, 0.065)

#: Figure 11's panels; the slug ``fig11<letter>`` names each panel's
#: journal and trace directory.
PANELS: tuple[Panel, ...] = (
    Panel("2x Pipeline, 8x8, Random Traffic", 8, 8, "uniform",
          (0.004, 0.01, 0.02, 0.04, 0.06, 0.09, 0.13),
          pipeline_scale=2, slug="fig11a"),
    Panel("64 requests, 8x8, Random Traffic", 8, 8, "uniform", _RATES,
          mshr_limit=64, slug="fig11b"),
    Panel("12x12, Random Traffic", 12, 12, "uniform", _RATES, slug="fig11c"),
)


def letter(panel: Panel) -> str:
    """The panel's letter in the paper (``a``/``b``/``c``), from its slug."""
    return panel.slug.removeprefix("fig11")


@dataclass
class Figure11Result:
    preset: str
    panels: dict[str, dict[str, BNFCurve]] = field(default_factory=dict)
    panel_specs: dict[str, Panel] = field(default_factory=dict)


def run_figure11(
    preset: str = "fast",
    panels: tuple[Panel, ...] = PANELS,
    algorithms: tuple[str, ...] = SCALING_ALGORITHMS,
    seed: int = 42,
    progress=None,
    guard: SweepGuard = SweepGuard(),
) -> Figure11Result:
    """Regenerate every panel of Figure 11 (see :func:`run_panel`)."""
    result = Figure11Result(preset=preset)
    for panel in panels:
        if progress is not None:
            progress(f"--- Figure 11{letter(panel)}: {panel.name} ---")
        result.panel_specs[panel.name] = panel
        result.panels[panel.name] = run_panel(
            panel, preset, algorithms, seed, progress, guard
        )
    return result


def format_figure11(result: Figure11Result) -> str:
    return panels_report({
        f"Figure 11{letter(result.panel_specs[name])}: {name} "
        f"(preset={result.preset})": curves
        for name, curves in result.panels.items()
    })
