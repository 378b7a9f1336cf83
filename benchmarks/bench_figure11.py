"""Benchmarks + reproduction checks for Figure 11 (scaling studies)."""

import pytest

from repro.experiments.figure11 import PANELS, ScalingPanel, run_panel
from repro.sim.sweep import throughput_gain_at_latency


def _reduced(panel: ScalingPanel, rates: tuple[float, ...]) -> ScalingPanel:
    return ScalingPanel(
        key=panel.key,
        name=panel.name,
        width=panel.width,
        height=panel.height,
        mshr_limit=panel.mshr_limit,
        pipeline_scale=panel.pipeline_scale,
        rates=rates,
        headline_latency_ns=panel.headline_latency_ns,
        baseline=panel.baseline,
    )


def _record_sweep_metrics(perf_record, benchmark, curves) -> None:
    """Sweep throughput metrics from the measured panel run."""
    elapsed = benchmark.stats.stats.mean
    if elapsed <= 0:
        return
    points = sum(len(curve.points) for curve in curves.values())
    delivered = sum(
        point.packets_delivered
        for curve in curves.values()
        for point in curve.points
    )
    perf_record.metric("sweep_points_per_s", points / elapsed, unit="points/s")
    perf_record.metric(
        "packets_delivered_per_s", delivered / elapsed, unit="packets/s"
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: at smoke/seed 42 SPAA-rotary peaks at 0.814, "
           "under 1.15 x WFA-rotary's 0.717; the claim is re-scored there",
)
@pytest.mark.repro("figure-11a (2x pipeline)")
def test_figure11a_deep_pipeline(benchmark, perf_record):
    """With a 2x-deep pipeline only SPAA stays pipelined: it must win
    decisively (paper: >60% at ~100 ns)."""
    panel = _reduced(PANELS[0], (0.02, 0.06, 0.11))
    curves = benchmark.pedantic(
        run_panel,
        kwargs={"panel": panel, "preset": "smoke"},
        iterations=1, rounds=1,
    )
    _record_sweep_metrics(perf_record, benchmark, curves)

    print()
    for label, curve in curves.items():
        print(f"{label:>12}: peak {curve.peak_throughput():.3f} flits/router/ns")

    spaa = curves["SPAA-rotary"]
    wfa = curves["WFA-rotary"]
    gain = throughput_gain_at_latency(spaa, wfa, panel.headline_latency_ns)
    assert gain > 0.12, f"expected a decisive pipelining win, got {gain:+.1%}"
    assert spaa.peak_throughput() > wfa.peak_throughput() * 1.15


@pytest.mark.repro("figure-11b (64 outstanding misses)")
def test_figure11b_more_outstanding_misses(benchmark, perf_record):
    panel = _reduced(PANELS[1], (0.02, 0.05))
    curves = benchmark.pedantic(
        run_panel,
        kwargs={"panel": panel, "preset": "smoke"},
        iterations=1, rounds=1,
    )
    _record_sweep_metrics(perf_record, benchmark, curves)
    spaa = curves["SPAA-rotary"]
    wfa = curves["WFA-rotary"]
    print()
    print(f"SPAA-rotary peak {spaa.peak_throughput():.3f}, "
          f"WFA-rotary peak {wfa.peak_throughput():.3f}")
    # Paper: SPAA-rotary keeps its advantage under 4x the load
    # (roughly +13% at 200 ns).
    assert spaa.peak_throughput() > wfa.peak_throughput()


@pytest.mark.repro("figure-11c (12x12 network)")
def test_figure11c_larger_network(benchmark, perf_record):
    panel = _reduced(PANELS[2], (0.015, 0.04))
    with pytest.warns(UserWarning, match="128-processor limit"):
        curves = benchmark.pedantic(
            run_panel,
            kwargs={
                "panel": panel,
                "preset": "smoke",
                # PIM1 adds little here and 12x12 is the suite's most
                # expensive config; the paper's panel-c claim is about
                # SPAA-rotary vs WFA-rotary.
                "algorithms": ("SPAA-rotary", "WFA-rotary"),
            },
            iterations=1, rounds=1,
        )
    _record_sweep_metrics(perf_record, benchmark, curves)
    spaa = curves["SPAA-rotary"]
    wfa = curves["WFA-rotary"]
    print()
    print(f"SPAA-rotary peak {spaa.peak_throughput():.3f}, "
          f"WFA-rotary peak {wfa.peak_throughput():.3f}")
    # Paper: ~+18% at 200 ns on the 12x12 network.
    assert spaa.peak_throughput() > wfa.peak_throughput()
