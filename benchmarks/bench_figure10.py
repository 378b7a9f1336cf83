"""Benchmarks + reproduction checks for Figure 10 (BNF curves).

Scaled down for benchmark runs: the 4x4 panel sweeps four loads at the
``smoke`` preset and checks SPAA's ordering over WFA/PIM1; the 8x8
saturation check compares base and rotary at one beyond-saturation
load.  ``repro-experiments fig10 --preset paper`` is the full thing.
"""

import pytest

from repro.experiments.figure10 import PANELS, Panel, run_panel
from repro.sim.sweep import throughput_gain_at_latency


def _reduced(panel: Panel, rates: tuple[float, ...]) -> Panel:
    return Panel(
        name=panel.name,
        width=panel.width,
        height=panel.height,
        pattern=panel.pattern,
        rates=rates,
        headline_latency_ns=panel.headline_latency_ns,
        rotary_latency_ns=panel.rotary_latency_ns,
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


@pytest.mark.repro("figure-10 (4x4 random panel)")
def test_figure10_4x4_random(benchmark, perf_record):
    panel = _reduced(PANELS[0], (0.005, 0.02, 0.045, 0.065))
    curves = benchmark.pedantic(
        run_panel,
        kwargs={"panel": panel, "preset": "smoke"},
        iterations=1,
        rounds=1,
    )
    _record_sweep_metrics(perf_record, benchmark, curves)

    print()
    for label, curve in curves.items():
        pts = "  ".join(
            f"({p.throughput:.2f}, {p.latency_ns:.0f}ns)" for p in curve.points
        )
        print(f"{label:>12}: {pts}")

    spaa = curves["SPAA-base"]
    wfa = curves["WFA-base"]
    pim1 = curves["PIM1"]
    # Paper: SPAA-base clearly outperforms on 4x4 (about +11% @83ns);
    # PIM1 and WFA-base track each other.
    gain = throughput_gain_at_latency(spaa, wfa, panel.headline_latency_ns)
    assert gain > 0.03, f"SPAA-base should beat WFA-base on 4x4 (got {gain:+.1%})"
    assert spaa.peak_throughput() > wfa.peak_throughput()
    assert abs(wfa.peak_throughput() - pim1.peak_throughput()) < 0.15 * max(
        wfa.peak_throughput(), pim1.peak_throughput()
    )


@pytest.mark.repro("figure-10 (8x8 saturation fold-back)")
def test_figure10_8x8_rotary_rescues_saturation(benchmark, perf_record):
    """Beyond saturation, base collapses while rotary keeps delivering."""
    panel = _reduced(PANELS[1], (0.02, 0.06))

    def run():
        return run_panel(
            panel,
            preset="smoke",
            algorithms=("SPAA-base", "SPAA-rotary"),
        )

    curves = benchmark.pedantic(run, iterations=1, rounds=1)
    _record_sweep_metrics(perf_record, benchmark, curves)
    base = curves["SPAA-base"].points
    rotary = curves["SPAA-rotary"].points

    print()
    print(f"SPAA-base:   {[round(p.throughput, 3) for p in base]}")
    print(f"SPAA-rotary: {[round(p.throughput, 3) for p in rotary]}")

    # Pre-saturation both deliver similarly.
    assert base[0].throughput == pytest.approx(rotary[0].throughput, rel=0.15)
    # Beyond saturation: the Rotary Rule prevents the collapse.
    assert rotary[1].throughput > base[1].throughput * 1.05
    # And SPAA-base genuinely folds back (delivers less than before).
    assert base[1].throughput < base[0].throughput * 1.02
