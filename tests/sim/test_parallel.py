"""Pooled sweep executor: parity with serial, plumbing, failure modes.

The heavyweight guarantee -- ``workers=N`` produces bitwise identical
per-point stats to ``workers=1`` for every timing algorithm -- lives
here; the journal-as-work-queue behaviors (resume, compaction, kill
recovery) are covered in ``tests/resilience/test_parallel_sweep.py``
so the resilience CI slice exercises them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.registry import TIMING_ALGORITHMS
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.invariants import InvariantConfig
from repro.sim.parallel import KILL_POINT_ENV, run_point_attempt
from repro.sim.sweep import (
    PointSpec,
    SweepPointError,
    sweep_algorithm,
    sweep_algorithms,
)

RATES = (0.005, 0.02)

#: a two-point pooled sweep at module level (no ``__main__`` guard)
#: that prints its points; the same points as ``tiny_config()`` serially.
_POOLED_SWEEP_SCRIPT = """\
import json
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.sweep import sweep_algorithms

config = SimulationConfig(
    network=NetworkConfig(width=2, height=2),
    traffic=TrafficConfig(injection_rate=0.01),
    warmup_cycles=200,
    measure_cycles=800,
    seed=3,
)
curves = sweep_algorithms(config, (config.algorithm,), (0.005, 0.02), workers=2)
print(json.dumps([p.as_dict() for p in curves[config.algorithm].points]))
"""


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src/`` on its path."""
    env = dict(
        os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src")
    )
    return subprocess.run(
        [sys.executable, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def tiny_config(seed: int = 3) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(width=2, height=2),
        traffic=TrafficConfig(injection_rate=0.01),
        warmup_cycles=200,
        measure_cycles=800,
        seed=seed,
    )


class TestParity:
    def test_two_workers_match_serial_for_every_algorithm(self):
        """Acceptance: parallel == serial, bitwise, all algorithms."""
        config = tiny_config()
        serial = sweep_algorithms(config, TIMING_ALGORITHMS, RATES)
        parallel = sweep_algorithms(
            config, TIMING_ALGORITHMS, RATES, workers=2
        )
        assert set(parallel) == set(serial)
        for algorithm in TIMING_ALGORITHMS:
            assert [p.as_dict() for p in parallel[algorithm].points] == [
                p.as_dict() for p in serial[algorithm].points
            ], algorithm

    def test_single_algorithm_entry_point(self):
        config = tiny_config()
        serial = sweep_algorithm(config, RATES)
        parallel = sweep_algorithm(config, RATES, workers=2)
        assert parallel.label == serial.label
        assert [p.as_dict() for p in parallel.points] == [
            p.as_dict() for p in serial.points
        ]

    def test_a_points_trace_ignores_what_its_process_ran_before(self, tmp_path):
        """Packet and transaction ids are numbered per run, so a point's
        trace is the same bytes (manifest/run-end aside: they carry wall
        time) run first or second in a process, serially or pooled."""
        def trace_of_last_point(name, rates, **pool):
            sweep_algorithm(
                tiny_config(), rates, telemetry_dir=tmp_path / name, **pool
            )
            lines = (tmp_path / name / "SPAA-base_rate0.02.jsonl").read_text()
            return [
                line for line in lines.splitlines()
                if json.loads(line)["kind"] not in ("manifest", "run-end")
            ]

        alone = trace_of_last_point("alone", (0.02,))
        assert len(alone) > 100
        assert trace_of_last_point("second", RATES) == alone
        assert trace_of_last_point("pooled", RATES, workers=2) == alone

    def test_counters_survive_the_process_boundary(self):
        """collect_counters pickles the BNFPoint counters back intact."""
        config = tiny_config()
        serial = sweep_algorithm(config, (0.02,), collect_counters=True)
        parallel = sweep_algorithm(
            config, (0.02,), collect_counters=True, workers=2
        )
        assert parallel.points[0].counters == serial.points[0].counters
        assert parallel.points[0].counters  # non-empty, not just equal


class TestPlumbing:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            sweep_algorithms(tiny_config(), ("PIM1",), RATES, workers=0)
        with pytest.raises(ValueError, match="workers"):
            sweep_algorithm(tiny_config(), RATES, workers=0)

    def test_serial_sweep_ignores_worker_fault_hooks(self, monkeypatch):
        """The kill hook belongs to the worker entry: a serial sweep
        runs in this very process and must never read it."""
        expected = sweep_algorithm(tiny_config(), RATES)
        monkeypatch.setenv(KILL_POINT_ENV, "*")
        curve = sweep_algorithm(tiny_config(), RATES, workers=1)
        assert [p.as_dict() for p in curve.points] == [
            p.as_dict() for p in expected.points
        ]

    def test_point_spec_is_picklable_and_runs_in_process(self):
        """run_point_attempt is the worker entry; exercise it directly."""
        import pickle

        spec = PointSpec(
            config=tiny_config(),
            rate=0.02,
            telemetry_dir=None,
            collect_counters=False,
            faults=None,
            invariants=None,
            watchdog=None,
        )
        restored = pickle.loads(pickle.dumps(spec))
        result = run_point_attempt(restored)
        assert result.ok
        assert result.attempts == 1
        assert result.algorithm == spec.config.algorithm

    def test_pooled_sweep_from_a_script_without_a_main_guard(self, tmp_path):
        """Workers start from a bare interpreter: they never re-run the
        caller's script, so it needs no ``if __name__ == "__main__":``."""
        script = tmp_path / "unguarded.py"
        script.write_text(_POOLED_SWEEP_SCRIPT)
        done = run_python(str(script))
        assert done.returncode == 0, done.stderr
        serial = sweep_algorithm(tiny_config(), RATES)
        assert json.loads(done.stdout) == [p.as_dict() for p in serial.points]

    def test_no_process_outlives_a_pooled_sweep(self):
        done = run_python(
            "-c",
            _POOLED_SWEEP_SCRIPT
            + "import os\n"
            + "try:\n"
            + "    print(os.waitpid(-1, os.WNOHANG))\n"
            + "except ChildProcessError:\n"
            + "    print('no child left')\n",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "no child left"

    def test_per_point_traces_and_sweep_manifest(self, tmp_path):
        sweep_algorithms(
            tiny_config(), ("PIM1", "SPAA-base"), (0.02,),
            telemetry_dir=tmp_path, workers=2,
        )
        assert (tmp_path / "PIM1_rate0.02.jsonl").exists()
        assert (tmp_path / "SPAA-base_rate0.02.jsonl").exists()
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert manifest["kind"] == "parallel-sweep-manifest"
        assert manifest["workers"] == 2
        assert {p["trace"] for p in manifest["points"]} == {
            "PIM1_rate0.02.jsonl", "SPAA-base_rate0.02.jsonl",
        }


class TestFailurePropagation:
    def test_worker_failure_raises_sweep_point_error(self):
        """A point that fails in a worker fails the sweep with the
        serial runner's exception type, attempts and last error."""
        # An impossible age bound: every buffered packet is instantly
        # "too old", so every attempt fails inside the worker.
        invariants = InvariantConfig(
            check_interval_cycles=100.0, max_wait_cycles=1e-9
        )
        with pytest.raises(SweepPointError) as excinfo:
            sweep_algorithm(
                tiny_config(),
                (0.02,),
                invariants=invariants,
                max_attempts=2,
                workers=2,
            )
        assert excinfo.value.attempts == 2
        assert "invariant" in str(excinfo.value)

    def test_serial_and_pooled_journal_the_same_failures(self, tmp_path):
        """One landing path: the same always-failing point leaves the
        same (status, attempt, error) records whoever ran the attempts
        (packet ids are numbered per run, so the violation texts agree
        to the last "packet #N")."""
        invariants = InvariantConfig(
            check_interval_cycles=100.0, max_wait_cycles=1e-9
        )
        records = {}
        for workers in (1, 2):
            journal = SweepJournal(tmp_path / f"workers{workers}.jsonl")
            with pytest.raises(SweepPointError):
                sweep_algorithm(
                    tiny_config(),
                    (0.02,),
                    invariants=invariants,
                    journal=journal,
                    max_attempts=2,
                    workers=workers,
                )
            records[workers] = sorted(
                (record["status"], record["attempt"], record["error"])
                for record in map(
                    json.loads, journal.path.read_text().splitlines()
                )
            )
        assert len(records[1]) == 2
        assert records[1] == records[2]
