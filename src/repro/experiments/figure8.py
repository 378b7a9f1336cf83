"""Figure 8: standalone matching capability vs router load.

Matches per cycle for MCM, WFA, PIM, PIM1 and SPAA on a single router
with all output ports free, as the input load grows toward (and past)
the MCM saturation load.  The paper's headline numbers at the
saturation load: MCM/WFA/PIM find ~36% more matches than SPAA and PIM1
~14% more.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.registry import STANDALONE_ALGORITHMS
from repro.experiments.report import matches_report
from repro.sim.standalone import (
    StandaloneConfig,
    find_mcm_saturation_load,
    measure_matches,
)

#: Fractions of the MCM saturation load along the x-axis.
DEFAULT_FRACTIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


@dataclass(frozen=True)
class Figure8Result:
    """All series of the figure plus the saturation-load gaps."""

    saturation_load: int
    fractions: tuple[float, ...]
    #: algorithm -> matches/cycle at each fraction
    series: dict[str, tuple[float, ...]]

    def matches_at_saturation(self, algorithm: str) -> float:
        return self.series[algorithm][-1]

    def gap_over_spaa(self, algorithm: str) -> float:
        """Relative advantage over SPAA at the saturation load."""
        spaa = self.matches_at_saturation("SPAA")
        return self.matches_at_saturation(algorithm) / spaa - 1.0


def run_figure8(
    trials: int = 1000,
    seed: int = 42,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    algorithms: tuple[str, ...] = STANDALONE_ALGORITHMS,
    faults=None,
    backend: str = "object",
) -> Figure8Result:
    """Regenerate the Figure 8 series.

    *faults* (a :class:`repro.resilience.FaultConfig`) stresses every
    measurement with matching-layer grant suppression -- the saturation
    load is still found on a clean MCM so the x-axis stays comparable.
    *backend* selects the object oracle or the vectorized kernels for
    every point (algorithms without a kernel, like MCM, fall back to
    the object path with identical results).
    """
    base = StandaloneConfig(trials=trials, seed=seed)
    saturation = find_mcm_saturation_load(base, backend=backend)
    series: dict[str, tuple[float, ...]] = {}
    for algorithm in algorithms:
        series[algorithm] = tuple(
            measure_matches(
                replace(
                    base,
                    algorithm=algorithm,
                    load=max(1, round(fraction * saturation)),
                ),
                faults=faults,
                backend=backend,
            )
            for fraction in fractions
        )
    return Figure8Result(
        saturation_load=saturation, fractions=tuple(fractions), series=series
    )


def format_figure8(result: Figure8Result) -> str:
    """Human-readable rendering of the regenerated figure."""
    return matches_report(
        "Figure 8: arbitration matches/cycle, zero output occupancy "
        f"(MCM saturation load = {result.saturation_load} packets)",
        "fraction of MCM saturation load", result.fractions, result.series,
        ".3f",
    )
