"""The journal as a parallel work queue: resume, compaction, recovery.

These are the resilience-facing halves of the parallel runner (serial
parity and pool plumbing live in ``tests/sim/test_parallel.py``): a
partially journalled sweep resumed with ``workers=2`` must run only the
missing points, record the rest verbatim, and leave a journal that a
serial resume (or another parallel one) replays to the same state --
the crash-recovery contract of the serial runner, unchanged.
"""

import json

import pytest

from repro.resilience.checkpoint import SweepJournal
from repro.resilience.faults import FaultConfig
from repro.resilience.invariants import InvariantConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.parallel import FAULT_ONCE_FILE_ENV, KILL_POINT_ENV
from repro.sim.sweep import SweepPointError, sweep_algorithm, sweep_algorithms

RATES = (0.005, 0.02)
ALGOS = ("PIM1", "SPAA-base")


def journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestJournalAsWorkQueue:
    def test_parallel_resume_runs_only_the_missing_points(
        self, tiny_config, tmp_path
    ):
        """Pre-journalled points are claimed, not re-run, by the pool."""
        journal_path = tmp_path / "sweep.jsonl"
        # Seed the journal with one algorithm's worth of points
        # (simulating a sweep killed halfway through the grid).
        seeded = sweep_algorithm(
            tiny_config.with_algorithm("PIM1"),
            rates=RATES,
            journal=SweepJournal(journal_path),
        )
        lines_before = len(journal_records(journal_path))
        assert lines_before == len(RATES)

        progress: list[str] = []
        curves = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            progress=progress.append,
            journal=SweepJournal(journal_path),
            resume=True,
            workers=2,
        )
        # Exactly the missing (SPAA-base) points were run and appended.
        records = journal_records(journal_path)
        assert len(records) == len(ALGOS) * len(RATES)
        fresh = [r for r in records[lines_before:]]
        assert {r["algorithm"] for r in fresh} == {"SPAA-base"}
        assert sum("resumed from journal" in line for line in progress) == 2
        # The spliced PIM1 points are the seeded run's, verbatim.
        assert [p.as_dict() for p in curves["PIM1"].points] == [
            p.as_dict() for p in seeded.points
        ]

    def test_parallel_and_serial_leave_equivalent_journals(
        self, tiny_config, tmp_path
    ):
        serial_journal = SweepJournal(tmp_path / "serial.jsonl")
        parallel_journal = SweepJournal(tmp_path / "parallel.jsonl")
        sweep_algorithms(tiny_config, ALGOS, RATES, journal=serial_journal)
        sweep_algorithms(
            tiny_config, ALGOS, RATES, journal=parallel_journal, workers=2
        )
        # Line order may differ (completion order vs sweep order); the
        # latest-wins state the resume path reads must not.
        for algorithm in ALGOS:
            for rate in RATES:
                serial_point = SweepJournal(
                    serial_journal.path
                ).completed_point(algorithm, rate)
                parallel_point = SweepJournal(
                    parallel_journal.path
                ).completed_point(algorithm, rate)
                assert parallel_point.as_dict() == serial_point.as_dict()

    def test_killed_parallel_sweep_resumes_cleanly(
        self, tiny_config, tmp_path
    ):
        """Failing points degrade the pool; --resume finishes the grid."""
        journal_path = tmp_path / "sweep.jsonl"
        # First pass: an impossible age bound fails every attempt of
        # every point -- each is journalled, then the sweep raises.
        with pytest.raises(SweepPointError):
            sweep_algorithms(
                tiny_config,
                ALGOS,
                RATES,
                invariants=InvariantConfig(
                    check_interval_cycles=100.0, max_wait_cycles=1e-9
                ),
                journal=SweepJournal(journal_path),
                workers=2,
            )
        assert len(SweepJournal(journal_path).failures()) == (
            len(ALGOS) * len(RATES)
        )
        # Second pass, healthy and resumed: every point completes and
        # the compacted journal holds one success per key.
        curves = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            journal=SweepJournal(journal_path),
            resume=True,
            workers=2,
        )
        assert all(len(curves[a].points) == len(RATES) for a in ALGOS)
        replayed = SweepJournal(journal_path)
        assert replayed.completed_count() == len(ALGOS) * len(RATES)
        assert not replayed.failures()
        # Compaction ran after the successful resume: one line per key.
        assert len(journal_records(journal_path)) == len(ALGOS) * len(RATES)


class TestPlainPoolSurvivesWorkerLoss:
    """``workers=N`` with no SupervisorConfig runs under the scheduler's
    defaults: no deadline, no staleness bound, but a dead worker costs
    only a retry of its own point."""

    def test_sigkilled_worker_is_replaced_and_curves_match_serial(
        self, tiny_config, tmp_path, monkeypatch
    ):
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(KILL_POINT_ENV, "PIM1:0.02")
        monkeypatch.setenv(FAULT_ONCE_FILE_ENV, str(tmp_path / "killed-once"))
        curves = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            workers=2,
            journal=SweepJournal(journal_path),
        )
        lost = [
            r
            for r in journal_records(journal_path)
            if r.get("reason") == "worker-lost"
        ]
        assert len(lost) == 1
        assert (lost[0]["algorithm"], lost[0]["rate_key"]) == ("PIM1", "0.02")
        monkeypatch.delenv(KILL_POINT_ENV)
        serial = sweep_algorithms(tiny_config, ALGOS, RATES)
        for algorithm in ALGOS:
            assert [p.as_dict() for p in curves[algorithm].points] == [
                p.as_dict() for p in serial[algorithm].points
            ]

    def test_degraded_sweep_journals_every_healthy_point_then_raises(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """One poison point (kills every worker that touches it) must
        not cost the sweep any other point: the rest of the grid lands
        in the journal before the error surfaces."""
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(KILL_POINT_ENV, "PIM1:0.02")  # every attempt
        with pytest.raises(SweepPointError) as excinfo:
            sweep_algorithms(
                tiny_config,
                ALGOS,
                RATES,
                workers=2,
                journal=SweepJournal(journal_path),
            )
        error = excinfo.value
        assert (error.algorithm, error.rate, error.attempts) == ("PIM1", 0.02, 3)
        assert "worker process died" in str(error)
        assert list(error.quarantined) == [("PIM1", "0.02")]
        journal = SweepJournal(journal_path)
        assert journal.completed_count() == len(ALGOS) * len(RATES) - 1
        assert len(journal.quarantined()) == 1


class TestGuardedParallel:
    def test_guarded_parallel_point_records_resilience(
        self, tiny_config, tmp_path
    ):
        """Workers rebuild injector/checker/watchdog from their specs."""
        journal_path = tmp_path / "sweep.jsonl"
        sweep_algorithm(
            tiny_config,
            rates=(0.02,),
            faults=FaultConfig(seed=5, flit_drop_rate=2e-3),
            invariants=InvariantConfig(),
            watchdog=WatchdogConfig(window_cycles=500.0),
            journal=SweepJournal(journal_path),
            workers=2,
        )
        record = journal_records(journal_path)[0]
        resilience = record["resilience"]
        assert resilience["drained_clean"] is True
        assert resilience["invariant_violations"] == 0
        assert resilience["link_retries"] == resilience["faults_injected"]

    def test_guarded_parallel_matches_guarded_serial(
        self, tiny_config, tmp_path
    ):
        """Per-point determinism holds with the full guard attached."""
        guard = dict(
            faults=FaultConfig(seed=5, flit_drop_rate=2e-3),
            invariants=InvariantConfig(),
        )
        serial = sweep_algorithm(tiny_config, rates=(0.02,), **guard)
        parallel = sweep_algorithm(
            tiny_config, rates=(0.02,), workers=2, **guard
        )
        assert [p.as_dict() for p in parallel.points] == [
            p.as_dict() for p in serial.points
        ]
