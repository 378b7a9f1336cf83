"""Benchmark for Figure 8 (matching vs load); its claims are scoreboard
rows (``repro-experiments score``)."""

import pytest

from repro.experiments.figure8 import run_figure8


@pytest.mark.repro("F8.mcm-over-spaa")
def test_figure8_matching_capability(benchmark, perf_record, standalone_trials):
    fractions = (0.25, 0.5, 0.75, 1.0)
    with perf_record.phase("matching"):
        result = benchmark.pedantic(
            run_figure8,
            kwargs={"trials": standalone_trials, "fractions": fractions},
            iterations=1,
            rounds=1,
        )
    elapsed = benchmark.stats.stats.mean
    if elapsed > 0:
        points = standalone_trials * len(fractions) * len(result.series)
        perf_record.metric(
            "matching_trials_per_s", points / elapsed, unit="trials/s"
        )
