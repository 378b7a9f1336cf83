"""Benchmarks for Figure 10 (BNF curves) at reduced scale.

The 4x4 panel sweeps four loads at the ``smoke`` preset; the 8x8 run
puts SPAA-base and SPAA-rotary at one load below and one beyond
saturation.  The claims are scoreboard rows (``repro-experiments
score``); ``repro-experiments fig10 --preset paper`` is the full thing.
"""

from dataclasses import replace

import pytest

from repro.experiments.figure10 import PANELS, run_panel


@pytest.mark.repro("F10.4x4-spaa-wfa")
def test_figure10_4x4_random(benchmark, record_sweep_metrics):
    panel = replace(PANELS[0], rates=(0.005, 0.02, 0.045, 0.065))
    record_sweep_metrics(benchmark.pedantic(
        run_panel,
        kwargs={"panel": panel, "preset": "smoke"},
        iterations=1,
        rounds=1,
    ))


@pytest.mark.repro("F10.8x8-base-folds")
def test_figure10_8x8_rotary_rescues_saturation(benchmark, record_sweep_metrics):
    panel = replace(PANELS[1], rates=(0.02, 0.06))
    record_sweep_metrics(benchmark.pedantic(
        run_panel,
        kwargs={"panel": panel, "preset": "smoke",
                "algorithms": ("SPAA-base", "SPAA-rotary")},
        iterations=1,
        rounds=1,
    ))
