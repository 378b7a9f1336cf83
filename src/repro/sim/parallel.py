"""The pooled sweep executor: scheduler-owned workers over the journal.

Every (algorithm, rate) point is an independent simulation whose seed
derives only from its config.  :func:`repro.sim.sweep.sweep_algorithms`
plans the pending points, holds the journal lock and owns the landing
path; this module is only *who runs the attempts* when ``workers > 1``
or a fleet is given:

* :func:`run_pooled` submits one picklable
  :class:`~repro.sim.sweep.PointSpec` *per attempt* to the
  :class:`~repro.resilience.PointSupervisor` scheduler -- over local
  spawn workers or (``fleet=...``) a remote fleet -- reschedules failed
  attempts itself (backoff waits in the parent, so a backing-off point
  never occupies a worker slot) and hands every result to the sweep's
  :class:`~repro.sim.sweep.Landing` as it completes;
* each **worker** runs :func:`run_point_attempt`, i.e. the serial
  executor's :func:`~repro.sim.sweep.run_attempt`, and writes its own
  per-point trace file, so no two processes ever share a sink;
* the parent stays the journal's **single writer**, so a crashed
  pooled sweep resumes with ``resume=True`` like a crashed serial one.

A dead worker costs only a retry of its own point, a point that keeps
crashing workers is quarantined, and the sweep *degrades* (lands every
healthy point, writes ``sweep_manifest.json``, then raises
:class:`SweepSupervisionError`) instead of hanging or aborting.  A
point's result depends only on its spec, never on scheduling, so only
the journal's line *order* (completion order, not sweep order) differs
from a serial run -- which the latest-wins reader never observes.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.resilience.checkpoint import rate_key
from repro.resilience.supervisor import (
    MP_CONTEXT,
    PointSupervisor,
    SupervisorConfig,
)
from repro.sim.sweep import (
    Landing,
    PointResult,
    PointSpec,
    SweepPointError,
    backoff_delay,
    run_attempt,
    trace_filename,
)

#: the scheduler's parent-side trace file inside a telemetry dir
#: (worker-lost/point-timeout/quarantined events + counters; on a fleet
#: also lease grants/expiries, worker connects, duplicate deliveries).
SUPERVISOR_TRACE_NAME = "supervisor.jsonl"

#: test-only chaos hooks, used by the test suite and the CI smoke jobs
#: to fault a worker deterministically: wedge (spin without
#: heartbeating) or SIGKILL the worker that picks up a matching point.
#: Values are ``"*"``, ``"<algorithm>"`` or ``"<algorithm>:<rate_key>"``.
#: With REPRO_TEST_FAULT_ONCE_FILE set, the first matching worker
#: claims the file (O_EXCL) and faults; later attempts run normally --
#: that is how CI proves a reaped point completes on retry.  Only
#: :func:`run_point_attempt` (the worker entry) reads them: the serial
#: executor runs in the parent, which a kill hook would take down.
WEDGE_POINT_ENV = "REPRO_TEST_WEDGE_POINT"
KILL_POINT_ENV = "REPRO_TEST_KILL_POINT"
FAULT_ONCE_FILE_ENV = "REPRO_TEST_FAULT_ONCE_FILE"


class SweepSupervisionError(SweepPointError):
    """A pooled sweep finished degraded: some points never landed.

    Raised *after* every healthy point completed and every outcome was
    journalled, so a ``--resume`` rerun retries exactly the points
    listed here.  ``failed`` maps (algorithm, rate_key) to the last
    in-task error of points that exhausted ``max_attempts``;
    ``quarantined`` maps keys of poison points that crashed their
    worker ``quarantine_after`` times.  ``algorithm`` / ``rate`` /
    ``attempts`` describe the first such point in sweep order, so one
    ``except SweepPointError`` handles serial and pooled failures.
    """

    def __init__(
        self,
        algorithm: str,
        rate: float,
        attempts: int,
        failed: dict[tuple[str, str], str],
        quarantined: dict[tuple[str, str], str],
    ) -> None:
        self.algorithm = algorithm
        self.rate = rate
        self.attempts = attempts
        self.failed = dict(failed)
        self.quarantined = dict(quarantined)
        parts = []
        for verb, points in (
            ("failed", self.failed), ("quarantined", self.quarantined)
        ):
            if points:
                listed = ", ".join(
                    f"{name} rate={key} ({points[name, key]})"
                    for name, key in sorted(points)
                )
                parts.append(f"{len(points)} point(s) {verb}: {listed}")
        RuntimeError.__init__(
            self,
            "pooled sweep degraded -- "
            + "; ".join(parts)
            + " (all outcomes journalled; rerun with --resume to retry)",
        )


# -- test fault hooks ------------------------------------------------------


def _test_fault_matches(value: str, spec: PointSpec) -> bool:
    if value == "*":
        return True
    algorithm, _, key = value.partition(":")
    if algorithm != spec.config.algorithm:
        return False
    return not key or key == rate_key(spec.rate)


def _claim_once_file() -> bool:
    """True when this worker may fault (once-file absent or claimed)."""
    path = os.environ.get(FAULT_ONCE_FILE_ENV)
    if not path:
        return True
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


# -- the worker entry -------------------------------------------------------


def run_point_attempt(spec: PointSpec, heartbeat=None) -> PointResult:
    """Worker entry: the test fault hooks, then the shared attempt.

    Module-level, so the scheduler pickles it with every spec by
    reference and any worker, pooled or remote, can load it.
    """
    wedge = os.environ.get(WEDGE_POINT_ENV)
    if wedge and _test_fault_matches(wedge, spec) and _claim_once_file():
        while True:  # no heartbeats: the supervisor must reap us
            time.sleep(3600)
    kill = os.environ.get(KILL_POINT_ENV)
    if kill and _test_fault_matches(kill, spec) and _claim_once_file():
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    return run_attempt(spec, heartbeat)


# -- the pooled executor ----------------------------------------------------


def run_pooled(
    pending: list[PointSpec],
    landing: Landing,
    algorithms: Sequence[str],
    rates: Sequence[float],
    telemetry_dir: Path | str | None,
    workers: int,
    supervisor: SupervisorConfig | None,
    fleet,
) -> None:
    """Run *pending* on scheduler-owned workers; land every outcome.

    The sweep manifest is written even when the sweep fails (in a
    ``finally``), so an aborted run still documents what it did; a
    degraded sweep raises :class:`SweepSupervisionError` after that.
    """
    started = time.perf_counter()
    resumed_keys = set(landing.completed)
    degraded = summary = None
    try:
        if pending:
            degraded, summary = _drain(
                pending, landing, telemetry_dir,
                workers, supervisor or SupervisorConfig(), fleet,
            )
    finally:
        if telemetry_dir is not None:
            _write_sweep_manifest(
                Path(telemetry_dir), algorithms, rates, landing, workers,
                time.perf_counter() - started, resumed_keys, summary,
            )
    if degraded is not None:
        raise degraded


def _drain(
    pending: list[PointSpec],
    landing: Landing,
    telemetry_dir: Path | str | None,
    workers: int,
    config: SupervisorConfig,
    fleet,
) -> tuple["SweepSupervisionError | None", dict]:
    """Run the pending specs under the scheduler.

    The sweep *degrades*: a point that exhausts its attempts or is
    quarantined is journalled and the rest continues.  Returns (the
    error to raise once the manifest is written, if any; summary).
    """
    specs = {spec.key: spec for spec in pending}
    journal = landing.journal
    failed: dict[tuple[str, str], str] = {}
    quarantined: dict[tuple[str, str], str] = {}
    #: tries a failed / crashes a quarantined point went through.
    attempts: dict[tuple[str, str], int] = {}
    telemetry = None
    if telemetry_dir is not None:
        path = Path(telemetry_dir) / SUPERVISOR_TRACE_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        telemetry = Telemetry(sink=JsonlSink(path))
    holders = min(workers, len(pending))
    if fleet is not None:
        # Same scheduler, remote holders: the loop below cannot tell
        # the difference.
        from repro.service.coordinator import FleetTransport

        holders = FleetTransport(fleet, telemetry)
    supervisor = PointSupervisor(run_point_attempt, holders, config, telemetry)
    try:
        for spec in pending:
            supervisor.submit(spec.key, spec)
        while supervisor.outstanding:
            event = supervisor.next_event()
            key = event.task_id
            spec = specs[key]
            name, rate = spec.config.algorithm, spec.rate
            if event.kind == "result":
                result: PointResult = event.result
                landing.land(result)
                if result.ok:
                    continue
                if result.attempts < landing.max_attempts:
                    specs[key] = replace(spec, attempt=result.attempts)
                    delay_s = backoff_delay(spec.retry_backoff_s, result.attempts)
                    supervisor.submit(key, specs[key], delay_s=delay_s)
                else:
                    failed[key] = result.error
                    attempts[key] = result.attempts
            elif event.kind in ("worker-lost", "timeout"):
                # The scheduler already resubmitted (or will
                # quarantine); journal the crash so the retry trail
                # survives a parent crash too.
                if journal is not None:
                    journal.record_failure(
                        name,
                        rate,
                        spec.attempt + 1,
                        event.detail,
                        reason=event.kind,
                    )
                landing.say(
                    name, rate,
                    f"{event.kind} (crash {event.crashes}/"
                    f"{config.quarantine_after}): {event.detail}",
                )
            else:  # quarantined
                if journal is not None:
                    journal.record_quarantined(
                        name, rate, crashes=event.crashes, error=event.detail
                    )
                quarantined[key] = event.detail
                attempts[key] = event.crashes
                landing.say(
                    name, rate,
                    f"quarantined after {event.crashes} supervised crash(es)",
                )
        summary = supervisor.summary()
    finally:
        supervisor.close()
        if telemetry is not None:
            telemetry.finalize()
    degraded = None
    for spec in pending:  # sweep order: the first bad point leads
        if spec.key in attempts:
            degraded = SweepSupervisionError(
                spec.config.algorithm, spec.rate, attempts[spec.key],
                failed, quarantined,
            )
            break
    return degraded, summary


# -- the sweep manifest -----------------------------------------------------


def _write_sweep_manifest(
    telemetry_dir: Path,
    algorithms: Sequence[str],
    rates: Sequence[float],
    landing: Landing,
    workers: int,
    wall_time_s: float,
    resumed_keys: set[tuple[str, str]],
    supervisor_summary: dict | None,
) -> None:
    """Merge the per-worker traces into one sweep-level manifest.

    Workers each write their own per-point trace file (no sink is
    ever shared across processes); this parent-side manifest is the
    piece that ties them back together -- one JSON document mapping
    every (algorithm, rate) to its trace file, alongside the pool
    shape and wall time, so ``repro obs`` users and notebooks can
    enumerate a pooled sweep's traces without globbing.  Points
    resumed from the journal produced no trace in *this* run, so
    they carry ``"trace": null`` and ``"resumed": true`` instead of
    pointing at a file that may not exist in this telemetry dir.
    """
    points = []
    for algorithm in algorithms:
        for rate in rates:
            resumed = (algorithm, rate_key(rate)) in resumed_keys
            points.append({
                "algorithm": algorithm,
                "rate": rate,
                "rate_key": rate_key(rate),
                "trace": (
                    None if resumed else trace_filename(algorithm, rate)
                ),
                "resumed": resumed,
            })
    journal = landing.journal
    manifest = {
        "kind": "parallel-sweep-manifest",
        "workers": workers,
        "mp_context": MP_CONTEXT,
        "wall_time_s": wall_time_s,
        "resumed_points": len(resumed_keys),
        "journal": str(journal.path) if journal is not None else None,
        "points": points,
    }
    if supervisor_summary is not None:
        # Tuning knobs + live reap/quarantine totals, and where the
        # supervisor's own trace (events + counters) landed.
        manifest["supervisor"] = {
            **supervisor_summary, "trace": SUPERVISOR_TRACE_NAME
        }
    telemetry_dir.mkdir(parents=True, exist_ok=True)
    path = telemetry_dir / "sweep_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
