"""Parallel sweep scaling: wall-time curve and bitwise parity gate.

A Figure 10 panel is embarrassingly parallel (every (algorithm, rate)
point is an independent simulation), so ``sweep_algorithms(...,
workers=N)`` should approach N-fold speedup once the per-point work
dwarfs the spawn/pickle overhead.  This bench runs the sweep at
workers in {1, 2, 4} and always gates the acceptance criterion that
matters on any machine -- per-point stats bitwise identical to the
serial run.  A ``speedup_N_workers`` metric is recorded only on a host
with at least N + 1 CPUs (N workers plus the parent); on a smaller one
the pool cannot beat serial, so the record carries a "not measurable"
note instead of a number, and the speedup assert only arms on >= 4
cores.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.registry import TIMING_ALGORITHMS
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.sweep import sweep_algorithms

#: enough work per point for the pool to amortize its spawn cost
RATES = (0.005, 0.02, 0.045)


def _config() -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(
            width=4, height=4, buffer_plan=saturation_buffer_plan()
        ),
        traffic=TrafficConfig(injection_rate=0.01),
        warmup_cycles=1_000,
        measure_cycles=5_000,
        seed=42,
    )


def _timed_sweep(workers: int) -> tuple[float, dict]:
    started = time.perf_counter()
    curves = sweep_algorithms(
        _config(), TIMING_ALGORITHMS, RATES, workers=workers
    )
    return time.perf_counter() - started, curves


def _flatten(curves: dict) -> dict:
    return {
        (algorithm, point.offered_rate): point.as_dict()
        for algorithm, curve in curves.items()
        for point in curve.points
    }


@pytest.mark.repro("parallel sweep runner: scaling and serial parity")
def test_parallel_sweep_scaling(benchmark, perf_record):
    cores = os.cpu_count() or 1
    npoints = len(TIMING_ALGORITHMS) * len(RATES)
    serial_time, serial_curves = benchmark.pedantic(
        _timed_sweep, args=(1,), iterations=1, rounds=1
    )
    print(f"\n  {npoints} points, {cores} cores")
    print(f"  workers=1: {serial_time:6.2f}s  (speedup 1.00x)")
    if serial_time > 0:
        perf_record.metric(
            "serial_points_per_s", npoints / serial_time, unit="points/s"
        )
    speedups = {1: 1.0}
    for workers in (2, 4):
        parallel_time, parallel_curves = _timed_sweep(workers)
        speedups[workers] = serial_time / parallel_time
        if cores >= workers + 1:
            perf_record.metric(
                f"speedup_{workers}_workers", speedups[workers], unit="x"
            )
        else:
            perf_record.note(**{
                f"speedup_{workers}_workers": f"not measurable: {cores} cpus"
            })
        print(
            f"  workers={workers}: {parallel_time:6.2f}s  "
            f"(speedup {speedups[workers]:.2f}x)"
        )
        # The non-negotiable gate, on any host: bitwise identical
        # per-point stats regardless of pool size.
        assert _flatten(parallel_curves) == _flatten(serial_curves), (
            f"workers={workers} diverged from the serial sweep"
        )
    if cores >= 4:
        assert speedups[4] >= 2.0, (
            f"workers=4 managed only {speedups[4]:.2f}x on {cores} cores"
        )
    else:
        print(f"  (speedup gate skipped: only {cores} core(s))")
