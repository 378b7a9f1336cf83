"""Benchmark: vectorized kernels vs the object-path oracle.

Times both backends on the Figure 8 workload shape (saturation-scale
load, zero occupancy) and records per-algorithm throughput and speedup
into the ``kernels`` perf area.  The value comparison is exact -- the
backends share the keyed RNG stream, so their means must be the same
floats, not merely close.
"""

import time

import pytest

pytest.importorskip("numpy")

from repro.sim.standalone import (  # noqa: E402
    StandaloneConfig,
    measure_matches,
)

#: algorithms timed here; a plain measurement counts matches with
#: array ops alone on every one of them (SPAA's sequential LRS loop
#: runs only when grants are collected), so all are held to the floor.
VECTOR_ALGS = ("WFA", "PIM1", "OPF", "SPAA")

#: minimum vectorized-over-object speedup.
SPEEDUP_FLOOR = 5.0


def _timed(config, backend):
    started = time.perf_counter()
    value = measure_matches(config, backend=backend)
    return value, time.perf_counter() - started


@pytest.mark.repro("figure-8")
def test_kernel_speedup(perf_record):
    trials = 2000
    base = StandaloneConfig(load=32, trials=trials, seed=7)

    for algorithm in VECTOR_ALGS:
        config = StandaloneConfig(
            algorithm=algorithm,
            load=base.load,
            trials=base.trials,
            seed=base.seed,
        )
        # Warm the numpy import and allocator outside the timed region.
        measure_matches(config, backend="vectorized")
        with perf_record.phase(f"object:{algorithm}"):
            obj_value, obj_s = _timed(config, "object")
        with perf_record.phase(f"vectorized:{algorithm}"):
            vec_value, vec_s = _timed(config, "vectorized")
        assert vec_value == obj_value, (
            f"{algorithm}: backends disagree "
            f"(object={obj_value!r}, vectorized={vec_value!r})"
        )
        speedup = obj_s / vec_s if vec_s > 0 else float("inf")
        perf_record.metric(
            f"vectorized_trials_per_s_{algorithm}",
            trials / vec_s if vec_s > 0 else float("inf"),
            unit="trials/s",
        )
        perf_record.metric(
            f"kernel_speedup_x_{algorithm}", speedup, unit="x"
        )
        print(
            f"{algorithm:>5}: object {obj_s:.3f}s, vectorized {vec_s:.3f}s "
            f"-> {speedup:.1f}x (mean={obj_value:.3f})"
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"{algorithm}: vectorized backend only {speedup:.1f}x faster "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
