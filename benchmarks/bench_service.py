"""Distributed service: fleet throughput and coordinator overhead.

The service's pitch is that moving a sweep from a local process pool
to a lease-based coordinator over TCP costs (almost) nothing when
nothing goes wrong: the coordinator's bookkeeping (leases, dispatch
ids, heartbeat relay) must stay under 5% wall time against the
single-host pooled sweep at the same worker count, and a
second worker must actually buy throughput.  Both benches also gate
the acceptance criterion that matters on any machine: per-point stats
bitwise identical to a serial sweep, no matter where the points ran.

The fleet is spawned once per bench and reused across repeats --
that is the deployment shape (workers are long-running; coordinators
come and go per job), and sequential coordinators sharing one fleet
is itself a tested product path.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

import pytest

from repro.resilience.supervisor import SupervisorConfig
from repro.service.server import ServiceServer
from repro.service.worker import WorkerConfig, run_worker
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.sweep import sweep_algorithms

ALGOS = ("PIM1", "SPAA-base")
RATES = (0.005, 0.02)

#: generous bounds: these benches measure the cost of being
#: coordinated, so nothing may be reaped.
GENEROUS = SupervisorConfig(point_timeout_s=600.0, heartbeat_stale_s=600.0)


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


class BenchFleet:
    """A live server plus spawned process workers (real parallelism)."""

    def __init__(self) -> None:
        self.server = ServiceServer()
        self._processes: list[multiprocessing.Process] = []

    def add_worker(self) -> None:
        index = len(self._processes)
        config = WorkerConfig(
            host=self.server.host,
            port=self.server.port,
            name=f"bench-w{index}",
            seed=index,
        )
        process = multiprocessing.get_context("spawn").Process(
            target=run_worker, args=(config,), daemon=True
        )
        process.start()
        self._processes.append(process)
        deadline = time.monotonic() + 30.0
        while len(self.server.workers) < len(self._processes):
            if time.monotonic() > deadline:
                raise TimeoutError("bench worker never joined the roster")
            time.sleep(0.05)

    def shutdown(self) -> None:
        self.server.broadcast({"type": "shutdown"})
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self.server.close()


@pytest.fixture
def bench_fleet():
    fleet = BenchFleet()
    yield fleet
    fleet.shutdown()


def _timed_fleet_sweep(server) -> tuple[float, dict]:
    started = time.perf_counter()
    curves = sweep_algorithms(
        _config(), ALGOS, RATES, supervisor=GENEROUS, fleet=server
    )
    return time.perf_counter() - started, curves


def _timed_pool_sweep() -> tuple[float, dict]:
    started = time.perf_counter()
    curves = sweep_algorithms(
        _config(), ALGOS, RATES, workers=2, supervisor=GENEROUS
    )
    return time.perf_counter() - started, curves


def _flatten(curves: dict) -> dict:
    return {
        (algorithm, point.offered_rate): point.as_dict()
        for algorithm, curve in curves.items()
        for point in curve.points
    }


@pytest.mark.repro("fleet throughput: a second worker buys real speedup")
def test_fleet_throughput_scales_with_workers(perf_record, bench_fleet):
    cores = os.cpu_count() or 1
    npoints = len(ALGOS) * len(RATES)
    with perf_record.phase("serial-baseline"):
        started = time.perf_counter()
        serial_curves = sweep_algorithms(_config(), ALGOS, RATES)
        serial_time = time.perf_counter() - started
    perf_record.metric(
        "serial_points_per_s", npoints / serial_time, unit="points/s"
    )
    bench_fleet.add_worker()
    with perf_record.phase("fleet-1-worker"):
        one_time, one_curves = _timed_fleet_sweep(bench_fleet.server)
    perf_record.metric(
        "fleet_points_per_s_1w", npoints / one_time, unit="points/s"
    )
    bench_fleet.add_worker()
    with perf_record.phase("fleet-2-workers"):
        two_time, two_curves = _timed_fleet_sweep(bench_fleet.server)
    perf_record.metric(
        "fleet_points_per_s_2w", npoints / two_time, unit="points/s"
    )
    speedup = one_time / two_time
    if cores >= 3:  # two workers plus the coordinator
        perf_record.metric("fleet_speedup_2_workers", speedup, unit="x")
    else:
        perf_record.note(
            fleet_speedup_2_workers=f"not measurable: {cores} cpus"
        )
    print(
        f"\n  {npoints} points, {cores} cores\n"
        f"  serial:        {serial_time:6.2f}s\n"
        f"  fleet (1w):    {one_time:6.2f}s\n"
        f"  fleet (2w):    {two_time:6.2f}s  (speedup {speedup:.2f}x)"
    )
    # The non-negotiable gate on any host: where the points ran must
    # never change what they computed.
    assert _flatten(one_curves) == _flatten(serial_curves), (
        "1-worker fleet diverged from the serial sweep"
    )
    assert _flatten(two_curves) == _flatten(serial_curves), (
        "2-worker fleet diverged from the serial sweep"
    )
    if cores >= 4:
        assert speedup >= 1.3, (
            f"a second worker bought only {speedup:.2f}x on {cores} cores"
        )
    else:
        print(f"  (speedup gate skipped: only {cores} core(s))")


def _interleaved_medians(run_a, run_b, repeats: int = 5):
    """Median wall times of two variants, sampled alternately.

    Same discipline as ``bench_parallel_sweep.py``: interleaving
    cancels slow drift, the median resists scheduler hiccups, and the
    first pair is a discarded warmup.  Each side's last curves ride
    along for the parity gate.
    """
    run_a()
    run_b()
    times_a, times_b = [], []
    curves_a = curves_b = None
    for i in range(repeats):
        order = (
            [(times_a, run_a, "a"), (times_b, run_b, "b")]
            if i % 2 == 0
            else [(times_b, run_b, "b"), (times_a, run_a, "a")]
        )
        for times, run, side in order:
            elapsed, curves = run()
            times.append(elapsed)
            if side == "a":
                curves_a = curves
            else:
                curves_b = curves
    return (
        statistics.median(times_a),
        statistics.median(times_b),
        curves_a,
        curves_b,
    )


@pytest.mark.repro("coordinator overhead: <5% over the single-host pool")
def test_coordinator_overhead_under_five_percent(perf_record, bench_fleet):
    """Acceptance: at the same worker count, running a sweep through
    the TCP coordinator (leases, dispatch-id bookkeeping, base64
    payload framing, heartbeat relay) costs under 5% wall time against
    the supervised single-host pooled sweep (``workers=N``).

    The pool pays its worker spawn each run while the fleet's workers
    persist -- deliberately so, because that is how each is deployed;
    the bound is on the coordinated path not being meaningfully slower
    than the local one either way.
    """
    bench_fleet.add_worker()
    bench_fleet.add_worker()
    with perf_record.phase("interleaved-runs"):
        pool, fleet, pool_curves, fleet_curves = _interleaved_medians(
            _timed_pool_sweep,
            lambda: _timed_fleet_sweep(bench_fleet.server),
        )
    overhead = fleet / pool - 1.0
    perf_record.metric(
        "coordinator_overhead_fraction", overhead, higher_is_better=False
    )
    print(
        f"\ncoordinator overhead: {overhead:+.2%} "
        f"(pool {pool:.2f}s, fleet {fleet:.2f}s)"
    )
    # Parity first: coordination must never change what is computed.
    assert _flatten(fleet_curves) == _flatten(pool_curves), (
        "fleet sweep diverged from the single-host pool"
    )
    assert overhead < 0.05, (
        f"coordination cost {overhead:.1%} wall time (budget 5%); check "
        "the pump poll timeout and per-frame work before blaming noise"
    )
