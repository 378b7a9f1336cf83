"""Fleet acceptance: bitwise parity with single-host runs under chaos.

The distributed contract under test is the paper-repro one: where a
point runs (serial, local pool, remote fleet) and how many times its
worker died along the way must never change *what* the point computes.
Thread workers cover the happy parity paths; spawned process workers
take real SIGKILLs and wedges so the lease machinery (reassignment,
expiry kicks, exactly-once journaling) is exercised against actual
process death.
"""

import json
import time

import pytest

from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.chaos.scenario import ScenarioSpace
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.supervisor import PointSupervisor, SupervisorConfig
from repro.service.coordinator import FleetTransport
from repro.sim.parallel import (
    FAULT_ONCE_FILE_ENV,
    KILL_POINT_ENV,
    SUPERVISOR_TRACE_NAME,
    WEDGE_POINT_ENV,
)
from repro.sim.sweep import sweep_algorithms

RATES = (0.005, 0.02)
ALGOS = ("PIM1", "SPAA-base")

#: generous deadline, staleness comfortably above a loaded host's
#: heartbeat gap (same reasoning as the supervisor tests).
FLEET_CONFIG = SupervisorConfig(
    point_timeout_s=60.0,
    heartbeat_stale_s=5.0,
    poll_interval_s=0.02,
    reap_grace_s=2.0,
)


def mixed(payload, heartbeat):
    """A runner no worker knows by name: any importable one runs."""
    heartbeat()
    if payload == "raise":
        raise ValueError("boom")
    if payload == "unpicklable":
        return lambda: payload
    return payload * 2


def outcomes(supervisor):
    """Every task's (id, kind, result, detail), plus the final stats."""
    with supervisor:
        for task_id, payload in enumerate(["ab", "raise", "unpicklable", "c"]):
            supervisor.submit(task_id, payload)
        events = []
        while supervisor.outstanding:
            events.append(supervisor.next_event())
    rows = sorted((e.task_id, e.kind, e.result, e.detail) for e in events)
    return rows, supervisor.stats


def journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def curves_digest(curves):
    return {
        algorithm: [p.as_dict() for p in curves[algorithm].points]
        for algorithm in curves
    }


class TestFleetSweeps:
    def test_fleet_sweep_matches_serial_bitwise(self, tiny_config, fleet):
        fleet.add_thread_worker("w0", seed=0)
        fleet.add_thread_worker("w1", seed=1)
        fleet.wait_for_workers(2)
        distributed = sweep_algorithms(
            tiny_config, ALGOS, RATES,
            supervisor=FLEET_CONFIG, fleet=fleet.server,
        )
        serial = sweep_algorithms(tiny_config, ALGOS, RATES)
        assert curves_digest(distributed) == curves_digest(serial)

    def test_fleet_defaults_supervision_on(self, tiny_config, fleet):
        """Passing only ``fleet=`` is enough: leasing needs deadlines,
        so a default SupervisorConfig is implied."""
        fleet.add_thread_worker("w0")
        fleet.wait_for_workers(1)
        distributed = sweep_algorithms(
            tiny_config, ("PIM1",), (0.005,), fleet=fleet.server
        )
        serial = sweep_algorithms(tiny_config, ("PIM1",), (0.005,))
        assert curves_digest(distributed) == curves_digest(serial)

    def test_sigkilled_remote_worker_journalled_then_recovered(
        self, tiny_config, tmp_path, monkeypatch, fleet
    ):
        """Acceptance: a worker SIGKILLed mid-point is seen as a lost
        lease, the crash is journalled, the point is re-leased to the
        survivor, and the final curves equal a serial sweep's."""
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(KILL_POINT_ENV, "PIM1:0.02")
        monkeypatch.setenv(FAULT_ONCE_FILE_ENV, str(tmp_path / "killed-once"))
        fleet.add_process_worker("w0", seed=0)
        fleet.add_process_worker("w1", seed=1)
        fleet.wait_for_workers(2)
        curves = sweep_algorithms(
            tiny_config, ALGOS, RATES,
            supervisor=FLEET_CONFIG,
            fleet=fleet.server,
            journal=SweepJournal(journal_path),
        )
        lost = [
            r for r in journal_records(journal_path)
            if r.get("reason") == "worker-lost"
        ]
        assert len(lost) == 1
        assert (lost[0]["algorithm"], lost[0]["rate_key"]) == ("PIM1", "0.02")
        monkeypatch.delenv(KILL_POINT_ENV)
        serial = sweep_algorithms(tiny_config, ALGOS, RATES)
        assert curves_digest(curves) == curves_digest(serial)

    def test_wedged_remote_worker_reaped_by_lease_expiry(
        self, tiny_config, tmp_path, monkeypatch, fleet
    ):
        """Acceptance: a wedged worker stops heartbeating, its lease
        goes stale, the coordinator kicks it and re-leases; the sweep
        completes with serial-identical curves."""
        journal_path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(WEDGE_POINT_ENV, "SPAA-base:0.005")
        monkeypatch.setenv(FAULT_ONCE_FILE_ENV, str(tmp_path / "wedged-once"))
        fleet.add_process_worker("w0", seed=0)
        fleet.add_process_worker("w1", seed=1)
        fleet.wait_for_workers(2)
        started = time.monotonic()
        curves = sweep_algorithms(
            tiny_config, ALGOS, RATES,
            supervisor=FLEET_CONFIG,
            fleet=fleet.server,
            journal=SweepJournal(journal_path),
        )
        assert time.monotonic() - started < 45.0, "reap must not hang"
        reaped = [
            r for r in journal_records(journal_path)
            if r.get("reason") == "timeout"
        ]
        assert len(reaped) == 1
        assert reaped[0]["algorithm"] == "SPAA-base"
        monkeypatch.delenv(WEDGE_POINT_ENV)
        serial = sweep_algorithms(tiny_config, ALGOS, RATES)
        assert curves_digest(curves) == curves_digest(serial)

    def test_fleet_trace_name_marks_the_service(self, tiny_config, tmp_path, fleet):
        fleet.add_thread_worker("w0")
        fleet.wait_for_workers(1)
        sweep_algorithms(
            tiny_config, ("PIM1",), (0.005,),
            fleet=fleet.server, telemetry_dir=tmp_path,
        )
        # One parent-side trace name whether holders are local or
        # remote; the fleet's lease events are what mark the service.
        from repro.obs.analysis import summarize_trace

        summary = summarize_trace(tmp_path / SUPERVISOR_TRACE_NAME)
        assert summary.resilience_counts()["service_leases"] == 1
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert manifest["supervisor"]["trace"] == SUPERVISOR_TRACE_NAME


class TestFleetCampaigns:
    @staticmethod
    def _config(output_dir, **overrides):
        kwargs = dict(
            output_dir=output_dir,
            seed=3,
            count=3,
            space=ScenarioSpace.smoke(),
            inject_deadlock=False,
            traces=False,
            supervisor=FLEET_CONFIG,
        )
        kwargs.update(overrides)
        return CampaignConfig(**kwargs)

    def test_fleet_campaign_manifest_byte_identical_to_single_host(
        self, tmp_path, fleet
    ):
        """The headline acceptance artifact: the campaign manifest of
        a 2-worker fleet equals the single-host supervised one byte
        for byte."""
        single = run_campaign(self._config(tmp_path / "single", workers=2))
        fleet.add_thread_worker("w0", seed=0)
        fleet.add_thread_worker("w1", seed=1)
        fleet.wait_for_workers(2)
        distributed = run_campaign(
            self._config(tmp_path / "fleet", fleet=fleet.server)
        )
        assert distributed.manifest_path.read_bytes() == (
            single.manifest_path.read_bytes()
        )

    def test_fleet_campaign_resume_skips_recorded_outcomes(
        self, tmp_path, fleet
    ):
        """Coordinator-restart story, minus the SIGKILL (the CLI test
        covers that): a fresh coordinator pointed at the journal via
        ``resume`` re-runs nothing and reproduces the manifest."""
        fleet.add_thread_worker("w0")
        fleet.wait_for_workers(1)
        config = self._config(tmp_path / "campaign", fleet=fleet.server)
        first = run_campaign(config)
        from dataclasses import replace

        resumed = run_campaign(replace(config, resume=True))
        assert resumed.resumed == len(first.scenarios)
        assert resumed.manifest_path.read_bytes() == (
            first.manifest_path.read_bytes()
        )


class TestOneTaskBody:
    def test_pool_and_fleet_workers_answer_alike(self, fleet):
        """The scheduler hands its runner to whoever holds the task;
        a spawned pool worker and a fleet worker run it with the same
        body, so results and error details match, and neither worker
        dies of a task that raises or returns something unpicklable."""
        config = SupervisorConfig(poll_interval_s=0.02, reap_grace_s=2.0)
        pooled, pool_stats = outcomes(
            PointSupervisor(mixed, 1, config, resubmit_crashed=False)
        )
        fleet.add_thread_worker("w0")
        fleet.wait_for_workers(1)
        remote, fleet_stats = outcomes(PointSupervisor(
            mixed, FleetTransport(fleet.server), config, resubmit_crashed=False
        ))
        assert remote == pooled
        assert [row[1:3] for row in pooled] == [
            ("result", "abab"), ("worker-lost", None),
            ("worker-lost", None), ("result", "cc"),
        ]
        assert pooled[1][3] == "ValueError: boom"
        assert "pickle" in pooled[2][3]
        assert pool_stats["respawns"] == fleet_stats["respawns"] == 0
        assert len(fleet.server.workers) == 1


class TestWorkerResilience:
    def test_worker_gives_up_after_max_reconnects(self):
        from repro.service.worker import FleetWorker, WorkerConfig

        # Nothing listens on this port; bounded retries must exit 1.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        config = WorkerConfig(
            host="127.0.0.1",
            port=port,
            max_reconnects=2,
            reconnect_base_s=0.01,
            reconnect_max_s=0.05,
        )
        assert FleetWorker(config).run() == 1

    def test_reconnect_backoff_is_seeded_per_worker(self):
        """Two workers with distinct seeds must not back off in
        lockstep (the reconnect-stampede defence)."""
        import random

        from repro.resilience.backoff import jittered_backoff

        def schedule(seed):
            rng = random.Random(seed)
            return [
                jittered_backoff(0.5, 2.0, n, rng=rng, jitter=0.5, max_delay=30.0)
                for n in range(6)
            ]

        assert schedule(0) != schedule(1)
        assert schedule(0) == schedule(0)
