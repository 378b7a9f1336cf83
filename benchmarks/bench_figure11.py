"""Benchmarks for Figure 11 (scaling studies) at reduced scale; the
claims are scoreboard rows (``repro-experiments score``)."""

from dataclasses import replace

import pytest

from repro.experiments.figure11 import PANELS, run_panel


def _run(benchmark, panel, **kwargs):
    return benchmark.pedantic(
        run_panel,
        kwargs={"panel": panel, "preset": "smoke", **kwargs},
        iterations=1, rounds=1,
    )


@pytest.mark.repro("F11a.spaa-over-wfa")
def test_figure11a_deep_pipeline(benchmark, record_sweep_metrics):
    panel = replace(PANELS[0], rates=(0.02, 0.06, 0.11))
    record_sweep_metrics(_run(benchmark, panel))


@pytest.mark.repro("F11b.spaa-over-wfa")
def test_figure11b_more_outstanding_misses(benchmark, record_sweep_metrics):
    panel = replace(PANELS[1], rates=(0.02, 0.05))
    record_sweep_metrics(_run(benchmark, panel))


@pytest.mark.repro("F11c.spaa-over-wfa")
def test_figure11c_larger_network(benchmark, record_sweep_metrics):
    panel = replace(PANELS[2], rates=(0.015, 0.04))
    with pytest.warns(UserWarning, match="128-processor limit"):
        # PIM1 adds little here and 12x12 is the suite's most expensive
        # config; the panel-c rows compare SPAA-rotary with WFA-rotary.
        curves = _run(benchmark, panel,
                      algorithms=("SPAA-rotary", "WFA-rotary"))
    record_sweep_metrics(curves)
