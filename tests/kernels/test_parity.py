"""The parity gate: vectorized kernels vs the object-path oracle.

Bitwise identity, not approximation: for every vectorized algorithm the
two backends must produce the *same grants per trial* (same rows,
packets, outputs, in the same emission order) and the same
:class:`~repro.sim.metrics.RunningStats` floats, across a seeded grid
of loads, occupancies and traffic mixes.
"""

import pytest

pytest.importorskip("numpy")

from repro.resilience.faults import FaultConfig  # noqa: E402
from repro.sim.standalone import (  # noqa: E402
    StandaloneConfig,
    StandaloneRouterModel,
)

ALGORITHMS = ("SPAA", "SPAA-rotary", "OPF", "WFA", "WFA-rotary", "PIM1")


def run_backend(config, backend, faults=None):
    """(per-trial grant tuples, stats tuple, model) for one backend."""
    per_trial = {}

    def hook(trial, grants):
        per_trial[trial] = [(g.row, g.packet, g.output) for g in grants]

    model = StandaloneRouterModel(
        config, backend=backend, faults=faults, trial_hook=hook
    )
    stats = model.run()
    summary = (
        stats.count, stats.mean, stats.variance, stats.minimum, stats.maximum
    )
    return per_trial, summary, model


def plain_stats(config, backend):
    """Stats tuple of a run with no hook and no faults: the path every
    figure takes, where the kernels only count."""
    stats = StandaloneRouterModel(config, backend=backend).run()
    return (
        stats.count, stats.mean, stats.variance, stats.minimum, stats.maximum
    )


def assert_parity(config, faults=None):
    obj_grants, obj_stats, _ = run_backend(config, "object", faults)
    vec_grants, vec_stats, model = run_backend(config, "vectorized", faults)
    assert model.backend == "vectorized", model.fallback_reason
    assert vec_stats == obj_stats
    plain_obj = obj_stats if faults is None else plain_stats(config, "object")
    assert plain_stats(config, "vectorized") == plain_obj, "count-only path"
    mismatched = [
        trial for trial in obj_grants if obj_grants[trial] != vec_grants[trial]
    ]
    assert not mismatched, (
        f"{config.algorithm}: first divergent trial {mismatched[0]}: "
        f"object={obj_grants[mismatched[0]]} "
        f"vectorized={vec_grants[mismatched[0]]}"
    )


class TestGrantParity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_figure8_shape(self, algorithm, seed):
        assert_parity(StandaloneConfig(
            algorithm=algorithm, load=24, trials=60, seed=seed
        ))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("occupancy", [0.25, 0.5, 0.75])
    def test_figure9_shape(self, algorithm, occupancy):
        assert_parity(StandaloneConfig(
            algorithm=algorithm, load=32, occupancy=occupancy,
            trials=40, seed=5,
        ))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_traffic_mixes(self, algorithm):
        for local, two in ((0.2, 0.8), (0.8, 0.2)):
            assert_parity(StandaloneConfig(
                algorithm=algorithm, load=16, trials=30, seed=3,
                local_fraction=local, two_direction_fraction=two,
            ))

    @pytest.mark.parametrize("load", [1, 2, 64])
    def test_extreme_loads(self, load):
        for algorithm in ("WFA", "PIM1", "SPAA"):
            assert_parity(StandaloneConfig(
                algorithm=algorithm, load=load, trials=30, seed=8
            ))


class TestFaultParity:
    """Fault injection consumes the same draws on both backends."""

    @pytest.mark.parametrize("algorithm", ("WFA", "PIM1", "SPAA", "OPF"))
    def test_grant_suppression(self, algorithm):
        faults = FaultConfig(seed=17, grant_suppression_rate=0.25)
        assert_parity(
            StandaloneConfig(algorithm=algorithm, load=20, trials=40, seed=2),
            faults=faults,
        )

    def test_stall_window(self):
        faults = FaultConfig(
            seed=17,
            grant_suppression_rate=0.1,
            stall_node=0,
            stall_start_cycle=10,
            stall_cycles=15,
        )
        assert_parity(
            StandaloneConfig(algorithm="WFA", load=20, trials=40, seed=2),
            faults=faults,
        )


class TestBackendSelection:
    def test_bogus_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            StandaloneRouterModel(StandaloneConfig(), backend="gpu")

    def test_missing_numpy_is_a_loud_import_error(self, monkeypatch):
        # Asking for the vectorized backend without numpy must not
        # silently fall back -- the user asked for speed they won't get.
        from repro import kernels

        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        with pytest.raises(ImportError, match="kernels"):
            StandaloneRouterModel(
                StandaloneConfig(algorithm="WFA", trials=5),
                backend="vectorized",
            )

    def test_unkernelled_algorithm_falls_back(self):
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm="MCM", trials=5), backend="vectorized"
        )
        assert model.backend == "object"
        assert "MCM" in model.fallback_reason

    def test_custom_matrix_falls_back(self):
        from repro.router.connection_matrix import ConnectionMatrix

        matrix = ConnectionMatrix(
            cells=frozenset(
                (row, out) for row in range(16) for out in range(7)
            )
        )
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm="WFA", trials=5, matrix=matrix),
            backend="vectorized",
        )
        assert model.backend == "object"
        assert "matrix" in model.fallback_reason

    def test_telemetry_falls_back(self):
        from repro.obs.telemetry import Telemetry

        model = StandaloneRouterModel(
            StandaloneConfig(algorithm="WFA", trials=5),
            telemetry=Telemetry(),
            backend="vectorized",
        )
        assert model.backend == "object"
        assert "telemetry" in model.fallback_reason

    def test_fallback_result_matches_object(self):
        config = StandaloneConfig(algorithm="MCM", load=16, trials=20, seed=4)
        direct = StandaloneRouterModel(config, backend="object").run()
        fallen = StandaloneRouterModel(config, backend="vectorized").run()
        assert (direct.count, direct.mean) == (fallen.count, fallen.mean)

    def test_object_backend_reports_no_fallback(self):
        model = StandaloneRouterModel(StandaloneConfig(trials=5))
        assert model.backend == "object"
        assert model.fallback_reason is None
