"""Benchmark for Figure 9 (matching vs occupancy); its claims are
scoreboard rows (``repro-experiments score``)."""

import pytest

from repro.experiments.figure9 import run_figure9


@pytest.mark.repro("F9.gone-at-75")
def test_figure9_occupancy_convergence(benchmark, perf_record, standalone_trials):
    with perf_record.phase("matching"):
        result = benchmark.pedantic(
            run_figure9,
            kwargs={"trials": standalone_trials},
            iterations=1,
            rounds=1,
        )
    elapsed = benchmark.stats.stats.mean
    if elapsed > 0:
        points = (
            standalone_trials * len(result.occupancies) * len(result.series)
        )
        perf_record.metric(
            "matching_trials_per_s", points / elapsed, unit="trials/s"
        )
