"""Supervised execution: heartbeats, reaping, quarantine, recovery.

Two layers under test.  The unit half drives :class:`PointSupervisor`
directly with tiny module-level runners (picklable across the spawn
boundary) -- clean results, a self-SIGKILLing task, a wedge that never
heartbeats.  The integration half runs real sweeps through
``sweep_algorithms(..., supervisor=...)`` with the test fault hooks
armed, and pins the acceptance contract: a sweep that loses or wedges
a worker completes (or degrades loudly), journals the crash as a
first-class record, and a healthy ``resume`` run produces curves
bitwise identical to a serial sweep.
"""

import json
import os
import signal
import time

import pytest

from repro.resilience.checkpoint import SweepJournal
from repro.resilience.supervisor import (
    PointSupervisor,
    SupervisorConfig,
)
from repro.sim.parallel import (
    FAULT_ONCE_FILE_ENV,
    KILL_POINT_ENV,
    SUPERVISOR_TRACE_NAME,
    WEDGE_POINT_ENV,
    SweepSupervisionError,
)
from repro.sim.sweep import sweep_algorithm, sweep_algorithms

RATES = (0.005, 0.02)
ALGOS = ("PIM1", "SPAA-base")

#: generous deadline + tight-ish staleness: tests reap via heartbeats.
#: The staleness bound must still comfortably exceed a healthy
#: worker's beat gap when CPU-bound workers outnumber cores, or loaded
#: hosts reap spuriously.
FAST_REAP = SupervisorConfig(
    point_timeout_s=60.0,
    heartbeat_stale_s=5.0,
    poll_interval_s=0.02,
    reap_grace_s=2.0,
)


def _square(payload, heartbeat):
    heartbeat()
    return payload * payload


def _kill_marked(payload, heartbeat):
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return payload


def _wedge_marked(payload, heartbeat):
    if payload == "wedge":
        while True:
            time.sleep(3600)
    heartbeat()
    return payload


def journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def drain(supervisor):
    events = []
    while supervisor.outstanding:
        events.append(supervisor.next_event())
    return events


class TestPointSupervisor:
    def test_clean_tasks_round_trip(self):
        with PointSupervisor(_square, 2) as supervisor:
            for n in range(5):
                supervisor.submit(n, n)
            events = drain(supervisor)
        assert {e.kind for e in events} == {"result"}
        assert {e.task_id: e.result for e in events} == {
            n: n * n for n in range(5)
        }
        assert supervisor.stats["worker_lost"] == 0

    def test_killed_worker_is_replaced_and_others_finish(self):
        config = SupervisorConfig(poll_interval_s=0.02, reap_grace_s=2.0)
        with PointSupervisor(
            _kill_marked, 2, config=config, resubmit_crashed=False
        ) as supervisor:
            for task_id, payload in enumerate(["a", "die", "b", "c"]):
                supervisor.submit(task_id, payload)
            events = drain(supervisor)
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        assert len(by_kind["worker-lost"]) == 1
        assert by_kind["worker-lost"][0].task_id == 1
        assert "died" in by_kind["worker-lost"][0].detail
        # Every healthy task still landed despite the mid-pool death.
        assert sorted(e.result for e in by_kind["result"]) == ["a", "b", "c"]
        assert supervisor.stats["worker_lost"] == 1
        assert supervisor.stats["respawns"] == 1

    def test_poison_task_quarantined_after_k_crashes(self):
        config = SupervisorConfig(
            quarantine_after=2, poll_interval_s=0.02, reap_grace_s=2.0
        )
        with PointSupervisor(
            _kill_marked, 1, config=config, resubmit_crashed=True
        ) as supervisor:
            supervisor.submit("poison", "die")
            events = drain(supervisor)
        kinds = [e.kind for e in events]
        assert kinds == ["worker-lost", "worker-lost", "quarantined"]
        assert events[-1].crashes == 2
        assert supervisor.stats["quarantined"] == 1

    def test_wedged_worker_reaped_on_stale_heartbeat(self):
        started = time.monotonic()
        with PointSupervisor(
            _wedge_marked, 2, config=FAST_REAP, resubmit_crashed=False
        ) as supervisor:
            supervisor.submit(0, "wedge")
            supervisor.submit(1, "ok")
            events = drain(supervisor)
        elapsed = time.monotonic() - started
        by_kind = {e.kind: e for e in events}
        assert by_kind["timeout"].task_id == 0
        assert "heartbeat stale" in by_kind["timeout"].detail
        assert by_kind["result"].result == "ok"
        # The whole drain must not have waited for any deadline longer
        # than the staleness bound (i.e. the supervisor did not hang).
        assert elapsed < FAST_REAP.point_timeout_s / 2
        assert supervisor.stats["timeouts"] == 1

    def test_point_deadline_reaps_independent_of_heartbeats(self):
        config = SupervisorConfig(
            point_timeout_s=0.5, poll_interval_s=0.02, reap_grace_s=2.0
        )
        with PointSupervisor(
            _wedge_marked, 1, config=config, resubmit_crashed=False
        ) as supervisor:
            supervisor.submit(0, "wedge")
            events = drain(supervisor)
        assert events[0].kind == "timeout"
        assert "deadline" in events[0].detail

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(point_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(quarantine_after=0)
        with pytest.raises(ValueError):
            PointSupervisor(_square, 0)


class TestSupervisedSweeps:
    def test_supervised_sweep_matches_serial_bitwise(self, tiny_config):
        serial = sweep_algorithms(tiny_config, ALGOS, RATES)
        supervised = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            workers=2,
            supervisor=SupervisorConfig(point_timeout_s=120.0),
        )
        for algorithm in ALGOS:
            assert [p.as_dict() for p in supervised[algorithm].points] == [
                p.as_dict() for p in serial[algorithm].points
            ]

    def test_sigkilled_worker_journalled_then_recovered(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A SIGKILLed worker's point lands on a replacement worker in
        the same run; the crash is a first-class journal record."""
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(KILL_POINT_ENV, "PIM1:0.02")
        monkeypatch.setenv(
            FAULT_ONCE_FILE_ENV, str(tmp_path / "killed-once")
        )
        curves = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            workers=2,
            supervisor=FAST_REAP,
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

    def test_wedged_worker_reaped_and_point_completes(
        self, tiny_config, tmp_path, monkeypatch
    ):
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(WEDGE_POINT_ENV, "SPAA-base:0.005")
        monkeypatch.setenv(
            FAULT_ONCE_FILE_ENV, str(tmp_path / "wedged-once")
        )
        started = time.monotonic()
        curves = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            workers=2,
            supervisor=FAST_REAP,
            journal=SweepJournal(journal_path),
        )
        assert time.monotonic() - started < 30.0, "reap must not hang"
        reaped = [
            r
            for r in journal_records(journal_path)
            if r.get("reason") == "timeout"
        ]
        assert len(reaped) == 1
        assert reaped[0]["algorithm"] == "SPAA-base"
        assert all(len(curves[a].points) == len(RATES) for a in ALGOS)

    def test_poison_point_quarantined_then_resumed_serial_identical(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """The acceptance path end to end: a point that kills every
        worker it touches is quarantined (journalled, sweep degrades
        loudly), and a healthy --resume rerun completes the grid with
        curves bitwise identical to a serial sweep."""
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(KILL_POINT_ENV, "PIM1:0.02")  # every attempt
        config = SupervisorConfig(
            point_timeout_s=60.0,
            heartbeat_stale_s=5.0,
            quarantine_after=2,
            poll_interval_s=0.02,
            reap_grace_s=2.0,
        )
        with pytest.raises(SweepSupervisionError) as excinfo:
            sweep_algorithms(
                tiny_config,
                ALGOS,
                RATES,
                workers=2,
                supervisor=config,
                journal=SweepJournal(journal_path),
            )
        assert ("PIM1", "0.02") in excinfo.value.quarantined
        assert "--resume" in str(excinfo.value)
        journal = SweepJournal(journal_path)
        quarantined = journal.quarantined()
        assert len(quarantined) == 1
        assert quarantined[0]["crashes"] == 2
        # Every other point of the grid still completed and journalled.
        assert journal.completed_count() == len(ALGOS) * len(RATES) - 1
        # Healthy rerun: the quarantined point is retried and the grid
        # closes, bitwise identical to serial.
        monkeypatch.delenv(KILL_POINT_ENV)
        curves = sweep_algorithms(
            tiny_config,
            ALGOS,
            RATES,
            workers=2,
            supervisor=config,
            journal=SweepJournal(journal_path),
            resume=True,
        )
        serial = sweep_algorithms(tiny_config, ALGOS, RATES)
        for algorithm in ALGOS:
            assert [p.as_dict() for p in curves[algorithm].points] == [
                p.as_dict() for p in serial[algorithm].points
            ]

    def test_manifest_supervisor_section_and_trace(
        self, tiny_config, tmp_path
    ):
        telemetry_dir = tmp_path / "traces"
        sweep_algorithm(
            tiny_config,
            rates=(0.02,),
            workers=2,
            supervisor=SupervisorConfig(point_timeout_s=120.0),
            telemetry_dir=telemetry_dir,
        )
        manifest = json.loads(
            (telemetry_dir / "sweep_manifest.json").read_text()
        )
        section = manifest["supervisor"]
        assert section["point_timeout_s"] == 120.0
        assert section["quarantine_after"] == 3
        assert section["worker_lost"] == 0
        assert section["trace"] == SUPERVISOR_TRACE_NAME
        # The supervisor's own trace exists and summarizes cleanly,
        # with the new counters registered (all zero on a clean run).
        from repro.obs.analysis import summarize_trace

        summary = summarize_trace(telemetry_dir / SUPERVISOR_TRACE_NAME)
        assert summary.resilience_counts() == {}
        assert summary.scalar("resilience_worker_lost_total") == 0

    def test_resumed_points_marked_in_manifest(self, tiny_config, tmp_path):
        """Satellite: resumed points carry trace null + resumed true."""
        journal_path = tmp_path / "sweep.jsonl"
        sweep_algorithm(
            tiny_config,
            rates=RATES,
            journal=SweepJournal(journal_path),
        )
        telemetry_dir = tmp_path / "resumed-traces"
        sweep_algorithm(
            tiny_config,
            rates=RATES,
            workers=2,
            journal=SweepJournal(journal_path),
            resume=True,
            telemetry_dir=telemetry_dir,
        )
        manifest = json.loads(
            (telemetry_dir / "sweep_manifest.json").read_text()
        )
        assert manifest["resumed_points"] == len(RATES)
        for point in manifest["points"]:
            assert point["resumed"] is True
            assert point["trace"] is None
            # The manifest must not advertise files this run never
            # wrote.
            assert not list(telemetry_dir.glob("*rate*.jsonl"))
