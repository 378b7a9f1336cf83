"""Telemetry overhead: what enabled telemetry costs a timing run.

Disabled telemetry needs no timing gate: every instrumented site (the
router, the timing model, the callers of ``Arbiter.arbitrate``) tests
``tel.enabled`` first, and the default
:data:`~repro.obs.telemetry.NULL_TELEMETRY` has flags but no hooks, so
a site that forgets its guard raises ``AttributeError`` in every test
that runs it (``tests/obs/test_telemetry.py``).

These benches run the same simulation interleaved A/B against a run
without telemetry and report (without a tight gate -- the cost is real
and allowed) what *enabled* counters-only telemetry costs and what full
event tracing costs; both numbers are quoted in docs/observability.md.
"""

from __future__ import annotations

import statistics
import time

from repro.obs.sink import MemorySink
from repro.obs.telemetry import Telemetry
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.timing_model import NetworkSimulator


def _config() -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(width=4, height=4),
        traffic=TrafficConfig(injection_rate=0.02),
        warmup_cycles=1_000,
        measure_cycles=6_000,
        seed=7,
    )


def _time_run(telemetry) -> float:
    """Wall time of one run; a callable *telemetry* is built per run."""
    if callable(telemetry):
        telemetry = telemetry()
    simulator = NetworkSimulator(_config(), telemetry=telemetry)
    started = time.perf_counter()
    simulator.run()
    return time.perf_counter() - started


def _interleaved_medians(telemetry_a, telemetry_b, repeats: int = 7):
    """Median-of-N wall times of two variants, sampled alternately.

    Interleaving cancels slow drift (thermal, page cache).  The median
    is robust against scheduler hiccups on *both* sides: best-of-N
    compares each variant's single luckiest run, so one outlier-fast
    sample flips the measured sign of a sub-percent overhead; the
    median needs half the samples to be disturbed before it moves.
    The first pair is a discarded warmup.
    """
    _time_run(telemetry_a)
    _time_run(telemetry_b)
    times_a, times_b = [], []
    for i in range(repeats):
        # Flip the order every repeat so neither variant always runs
        # into the other's cache wake.
        if i % 2 == 0:
            times_a.append(_time_run(telemetry_a))
            times_b.append(_time_run(telemetry_b))
        else:
            times_b.append(_time_run(telemetry_b))
            times_a.append(_time_run(telemetry_a))
    return statistics.median(times_a), statistics.median(times_b)


def test_counters_only_overhead_is_moderate(perf_record):
    with perf_record.phase("interleaved-runs"):
        baseline, counted = _interleaved_medians(None, Telemetry())
    overhead = counted / baseline - 1.0
    perf_record.metric("sim_runs_per_s", 1.0 / baseline, unit="runs/s")
    perf_record.note(counters_overhead_fraction=overhead)
    print(
        f"\ncounters-only overhead: {overhead:+.2%} "
        f"(baseline {baseline:.3f}s, with counters {counted:.3f}s)"
    )
    # Counters are allowed to cost real time; this only guards against
    # an accidental order-of-magnitude regression (e.g. re-resolving
    # labels in the hot loop instead of using the bound-series caches).
    assert overhead < 0.5


def test_event_tracing_runs_and_reports(perf_record):
    """Events mode: no threshold, the measured number for the docs and
    ``BENCH_overhead.json``."""
    with perf_record.phase("interleaved-runs"):
        # A sink closes when its run finalizes: a fresh one per run.
        baseline, traced = _interleaved_medians(
            None, lambda: Telemetry(sink=MemorySink())
        )
    overhead = traced / baseline - 1.0
    perf_record.metric("sim_runs_per_s", 1.0 / baseline, unit="runs/s")
    perf_record.metric(
        "tracing_overhead_fraction", overhead, higher_is_better=False
    )
    print(
        f"\nfull event tracing (memory sink): {overhead:+.2%} "
        f"(baseline {baseline:.3f}s, traced {traced:.3f}s)"
    )
    assert traced > 0
