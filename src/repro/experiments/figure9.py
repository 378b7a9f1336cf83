"""Figure 9: matching capability vs output-port occupancy.

At the MCM saturation load, an increasing fraction of the seven output
ports is held busy.  The paper's point: the algorithms' matching gaps
shrink as occupancy grows and disappear entirely at 75% -- the
realistic operating regime that justifies SPAA's simplicity.
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

DEFAULT_OCCUPANCIES = (0.0, 0.25, 0.5, 0.75)


@dataclass(frozen=True)
class Figure9Result:
    saturation_load: int
    occupancies: tuple[float, ...]
    series: dict[str, tuple[float, ...]]

    def spread_at(self, occupancy: float) -> float:
        """Relative spread (max-min)/min across algorithms."""
        index = self.occupancies.index(occupancy)
        values = [series[index] for series in self.series.values()]
        low = min(values)
        return (max(values) - low) / low if low else float("inf")


def run_figure9(
    trials: int = 1000,
    seed: int = 42,
    occupancies: tuple[float, ...] = DEFAULT_OCCUPANCIES,
    algorithms: tuple[str, ...] = STANDALONE_ALGORITHMS,
    faults=None,
    backend: str = "object",
) -> Figure9Result:
    """Regenerate the Figure 9 series.

    *faults* (a :class:`repro.resilience.FaultConfig`) stresses every
    measurement with matching-layer grant suppression; the saturation
    load is still found on a clean MCM.  *backend* selects the object
    oracle or the vectorized kernels (non-kernel algorithms fall back
    with identical results).
    """
    base = StandaloneConfig(trials=trials, seed=seed)
    saturation = find_mcm_saturation_load(base, backend=backend)
    series: dict[str, tuple[float, ...]] = {}
    for algorithm in algorithms:
        series[algorithm] = tuple(
            measure_matches(
                replace(
                    base, algorithm=algorithm, load=saturation,
                    occupancy=occupancy,
                ),
                faults=faults,
                backend=backend,
            )
            for occupancy in occupancies
        )
    return Figure9Result(
        saturation_load=saturation,
        occupancies=tuple(occupancies),
        series=series,
    )


def format_figure9(result: Figure9Result) -> str:
    return matches_report(
        "Figure 9: arbitration matches/cycle at the MCM saturation load "
        f"({result.saturation_load} packets)",
        "fraction of output ports occupied", result.occupancies,
        result.series, ".2f",
    )
