"""Parallel sweep execution over the checkpoint journal.

A load sweep is embarrassingly parallel: every (algorithm, rate) point
is an independent simulation whose seed derives only from its config,
and :class:`~repro.resilience.SweepJournal` already treats each point
as an independently checkpointed unit of work.  This module adds the
missing piece -- a :class:`ParallelSweepRunner` that treats the journal
as a shared work queue:

* the **parent** claims the pending (algorithm, ``repr(rate)``) keys
  (points whose latest journal record is not a success), submits one
  picklable :class:`PointSpec` *per attempt* to the scheduler,
  reschedules failed attempts itself (backoff waits in the parent, so
  a backing-off point never occupies a worker slot), and splices
  results back through the journal's resume path as they complete;
* each **worker** reconstructs its resilience objects (fault injector,
  invariant checker, watchdog) from their config specs, runs the point
  with exactly the serial code path (:func:`repro.sim.sweep._run_point`
  -- same seeding, same retry re-seeding), and writes its own
  per-point telemetry trace file, so no two processes ever share a
  sink;
* the parent is the journal's **single writer**, so the JSONL file
  stays line-atomic and a crashed parallel sweep resumes with
  ``resume=True`` exactly like a crashed serial one.

There is one dispatch path: every pooled sweep runs under the
:class:`~repro.resilience.PointSupervisor` scheduler, over local spawn
workers or (``fleet=...``) a remote fleet.  A dead worker costs only a
retry of its own point, a point that keeps crashing workers is
quarantined, and the sweep *degrades* (finishes and journals every
healthy point, then raises :class:`SweepSupervisionError`) instead of
hanging or aborting.  The default
:class:`~repro.resilience.SupervisorConfig` sets no deadline and no
staleness bound, so only a dead process is ever acted on; pass
``supervisor=SupervisorConfig(point_timeout_s=...)`` to have wedged
workers reaped as well.

Determinism: a point's result depends only on its
:class:`~repro.sim.config.SimulationConfig` (plus the attempt-indexed
seed bumps), never on scheduling or supervision, so ``workers=N``
produces bitwise identical per-point stats to ``workers=1``.  Only the
journal's line *order* differs (completion order instead of sweep
order), which the latest-wins reader never observes.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.profiler import PhaseProfiler
from repro.resilience.checkpoint import SweepJournal, rate_key
from repro.resilience.faults import FaultConfig
from repro.resilience.invariants import InvariantConfig
from repro.resilience.supervisor import (
    MP_CONTEXT,
    PointSupervisor,
    SupervisorConfig,
)
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.config import SimulationConfig
from repro.sim.metrics import BNFCurve, BNFPoint
from repro.sim.sweep import (
    SweepPointError,
    _point_telemetry,
    _run_point,
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
#: that is how CI proves a reaped point completes on retry.
WEDGE_POINT_ENV = "REPRO_TEST_WEDGE_POINT"
KILL_POINT_ENV = "REPRO_TEST_KILL_POINT"
FAULT_ONCE_FILE_ENV = "REPRO_TEST_FAULT_ONCE_FILE"


@dataclass(frozen=True)
class PointSpec:
    """One attempt of one sweep point, picklable across a spawn boundary.

    Resilience settings travel as their *config* dataclasses; the
    worker builds the live injector/checker/watchdog itself, because
    those carry RNG state and open-ended references that must not leak
    between points (and would not survive pickling meaningfully).
    """

    config: SimulationConfig
    rate: float
    telemetry_dir: str | None
    collect_counters: bool
    faults: FaultConfig | None
    invariants: InvariantConfig | None
    watchdog: WatchdogConfig | None
    retry_backoff_s: float
    #: arm phase profiling in the worker; the per-point attribution
    #: comes back serialized in :attr:`PointResult.profile`.
    profile: bool = False
    #: which attempt this spec runs (0-based); the parent bumps it when
    #: rescheduling a failed point, and :func:`repro.sim.sweep._run_point`
    #: derives the attempt's seed bumps from it exactly like serial.
    attempt: int = 0
    #: cadence of the in-loop heartbeat tick under supervision.
    heartbeat_interval_cycles: float = 1_000.0

    @property
    def key(self) -> tuple[str, str]:
        return (self.config.algorithm, rate_key(self.rate))


@dataclass(frozen=True)
class PointResult:
    """What a worker sends back: a point, or the trail of failures."""

    algorithm: str
    rate: float
    attempts: int
    point: BNFPoint | None
    resilience: dict | None
    #: one pre-formatted ``"TypeName: message"`` per failed attempt, in
    #: attempt order, so the parent can journal each failure exactly as
    #: the serial runner would have.
    failures: tuple[str, ...] = ()
    #: the worker's serialized ``profile`` record (phase wall-time
    #: attribution) when the spec asked for profiling, else ``None``.
    profile: dict | None = None

    @property
    def ok(self) -> bool:
        return self.point is not None


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


def _maybe_test_fault(spec: PointSpec) -> None:
    wedge = os.environ.get(WEDGE_POINT_ENV)
    if wedge and _test_fault_matches(wedge, spec) and _claim_once_file():
        while True:  # no heartbeats: the supervisor must reap us
            time.sleep(3600)
    kill = os.environ.get(KILL_POINT_ENV)
    if kill and _test_fault_matches(kill, spec) and _claim_once_file():
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


# -- worker entries --------------------------------------------------------


def run_point_attempt(spec: PointSpec, heartbeat=None) -> PointResult:
    """Worker entry: run exactly one attempt of one sweep point.

    Module-level, so a spawn context pickles it by reference.  The
    attempt index rides on the spec; retry scheduling (and its backoff
    sleep) is the parent's job, so a failed attempt returns
    immediately and frees its worker slot.

    *heartbeat* is threaded into the simulator's heartbeat tick: the
    beat comes from inside the event loop, so a wedged simulation goes
    silent and gets reaped.
    """
    _maybe_test_fault(spec)
    telemetry = _point_telemetry(
        spec.config.algorithm,
        spec.rate,
        spec.telemetry_dir,
        spec.collect_counters,
        profile=spec.profile,
    )
    try:
        point, resilience = _run_point(
            spec.config,
            spec.rate,
            telemetry,
            None,
            spec.faults,
            spec.invariants,
            spec.watchdog,
            spec.attempt,
            heartbeat=heartbeat,
            heartbeat_interval_cycles=spec.heartbeat_interval_cycles,
        )
    except Exception as error:
        return PointResult(
            algorithm=spec.config.algorithm,
            rate=spec.rate,
            attempts=spec.attempt + 1,
            point=None,
            resilience=None,
            failures=(f"{type(error).__name__}: {error}",),
        )
    return PointResult(
        algorithm=spec.config.algorithm,
        rate=spec.rate,
        attempts=spec.attempt + 1,
        point=point,
        resilience=resilience,
        failures=(),
        profile=(
            telemetry.profiler.to_record()
            if spec.profile and telemetry is not None
            else None
        ),
    )


def _backoff_delay(retry_backoff_s: float, next_attempt: int) -> float:
    """Serial-identical exponential backoff before attempt *next_attempt*."""
    if next_attempt <= 0 or retry_backoff_s <= 0:
        return 0.0
    return retry_backoff_s * 2 ** (next_attempt - 1)


class ParallelSweepRunner:
    """Fan a (multi-)algorithm load sweep out over the scheduler.

    The public entry points are :meth:`run` (several algorithms, the
    shape :func:`repro.sim.sweep.sweep_algorithms` needs) and
    :meth:`run_algorithm` (a single curve).  ``workers=1`` is valid
    but pointless -- the sweep functions only delegate here when
    ``workers > 1`` or a fleet is given.

    *supervisor* tunes the :class:`~repro.resilience.PointSupervisor`
    every pooled sweep runs under (deadlines, heartbeat staleness,
    quarantine); the default arms neither wall-clock bound.  *fleet* is
    a live :class:`repro.service.ServiceServer` whose remote workers
    replace the local pool.
    """

    def __init__(
        self,
        workers: int,
        supervisor: SupervisorConfig | None = None,
        fleet=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.fleet = fleet
        self.supervisor = supervisor or SupervisorConfig()

    # -- public API ------------------------------------------------------

    def run(
        self,
        config: SimulationConfig,
        algorithms: Sequence[str],
        rates: Sequence[float],
        progress: Callable[[str], None] | None = None,
        telemetry_dir: Path | str | None = None,
        collect_counters: bool = False,
        faults: FaultConfig | None = None,
        invariants: InvariantConfig | None = None,
        watchdog: WatchdogConfig | None = None,
        journal: SweepJournal | None = None,
        resume: bool = False,
        max_attempts: int = 1,
        retry_backoff_s: float = 0.0,
        profile_into: PhaseProfiler | None = None,
    ) -> dict[str, BNFCurve]:
        """Sweep every (algorithm, rate) pair through the pool.

        All algorithms share one pool, so a slow algorithm's tail
        overlaps the next algorithm's points instead of serializing
        behind it.  Returns curves with points in ``rates`` order --
        identical to the serial :func:`sweep_algorithms`.

        With *profile_into* set, every worker runs its point with phase
        profiling armed and ships the serialized attribution back in
        its :class:`PointResult`; the parent merges the records into
        *profile_into* and into the sweep manifest, so "where did the
        pool's wall time go" survives the process boundary.

        The sweep manifest is written even when the sweep fails (in a
        ``finally``), so an aborted run still documents what it did.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        started = time.perf_counter()
        completed: dict[tuple[str, str], BNFPoint] = {}
        resumed_keys: set[tuple[str, str]] = set()
        pending: list[PointSpec] = []
        for algorithm in algorithms:
            algo_config = config.with_algorithm(algorithm)
            for rate in rates:
                if resume and journal is not None:
                    cached = journal.completed_point(algorithm, rate)
                    if cached is not None:
                        key = (algorithm, rate_key(rate))
                        completed[key] = cached
                        resumed_keys.add(key)
                        if progress is not None:
                            progress(
                                f"{algorithm} rate={rate:.4g} -> resumed "
                                f"from journal"
                            )
                        continue
                pending.append(PointSpec(
                    config=algo_config,
                    rate=rate,
                    telemetry_dir=(
                        str(telemetry_dir) if telemetry_dir is not None else None
                    ),
                    collect_counters=collect_counters,
                    faults=faults,
                    invariants=invariants,
                    watchdog=watchdog,
                    retry_backoff_s=retry_backoff_s,
                    profile=profile_into is not None,
                    heartbeat_interval_cycles=(
                        self.supervisor.heartbeat_interval_cycles
                    ),
                ))
        degraded: SweepSupervisionError | None = None
        supervisor_summary: dict | None = None
        # The lock marks this parent as the journal's single writer;
        # a concurrent sweep over the same journal fails fast instead
        # of interleaving lines.
        lock = journal.lock() if journal is not None else None
        if lock is not None:
            lock.acquire()
        try:
            if pending:
                degraded, supervisor_summary = self._drain(
                    pending, completed, journal, progress, max_attempts,
                    profile_into, telemetry_dir,
                )
        finally:
            if lock is not None:
                lock.release()
            if telemetry_dir is not None:
                self._write_sweep_manifest(
                    Path(telemetry_dir),
                    algorithms,
                    rates,
                    journal,
                    time.perf_counter() - started,
                    resumed_keys=resumed_keys,
                    profile=profile_into,
                    supervisor_summary=supervisor_summary,
                )
        if degraded is not None:
            raise degraded
        if resume and journal is not None:
            # A resumed sweep that reached this line replayed (or
            # re-ran) every point, so the retry history is dead weight:
            # rewrite the journal latest-wins.
            journal.compact()
        return {
            algorithm: BNFCurve(
                label=algorithm,
                points=[
                    completed[(algorithm, rate_key(rate))] for rate in rates
                ],
            )
            for algorithm in algorithms
        }

    def run_algorithm(
        self,
        config: SimulationConfig,
        rates: Sequence[float],
        **kwargs,
    ) -> BNFCurve:
        """Single-curve form (what ``sweep_algorithm(workers=N)`` uses)."""
        curves = self.run(config, (config.algorithm,), rates, **kwargs)
        return curves[config.algorithm]

    # -- the one dispatch loop -------------------------------------------

    def _drain(
        self,
        pending: list[PointSpec],
        completed: dict[tuple[str, str], BNFPoint],
        journal: SweepJournal | None,
        progress: Callable[[str], None] | None,
        max_attempts: int,
        profile_into: PhaseProfiler | None,
        telemetry_dir: Path | str | None,
    ) -> tuple["SweepSupervisionError | None", dict]:
        """Run the pending specs under the scheduler.

        The sweep *degrades*: a point that exhausts its attempts or is
        quarantined is journalled and the rest continues.  Returns (the
        error to raise once the manifest is written, if any; summary).
        """
        specs = {spec.key: spec for spec in pending}
        failed: dict[tuple[str, str], str] = {}
        quarantined: dict[tuple[str, str], str] = {}
        #: tries a failed / crashes a quarantined point went through.
        attempts: dict[tuple[str, str], int] = {}
        telemetry = None
        if telemetry_dir is not None:
            from repro.obs.sink import JsonlSink
            from repro.obs.telemetry import Telemetry

            path = Path(telemetry_dir) / SUPERVISOR_TRACE_NAME
            path.parent.mkdir(parents=True, exist_ok=True)
            telemetry = Telemetry(sink=JsonlSink(path))
        if self.fleet is not None:
            # Same scheduler, remote holders: the loop below cannot
            # tell the difference.
            from repro.service.coordinator import FleetCoordinator

            supervisor = FleetCoordinator(
                self.fleet,
                config=self.supervisor,
                telemetry=telemetry,
                resubmit_crashed=True,
                task_kind="sweep-point",
            )
        else:
            supervisor = PointSupervisor(
                workers=min(self.workers, len(pending)),
                runner=run_point_attempt,
                config=self.supervisor,
                telemetry=telemetry,
                resubmit_crashed=True,
            )
        try:
            for spec in pending:
                supervisor.submit(spec.key, spec)
            while supervisor.outstanding:
                event = supervisor.next_event()
                key = event.task_id
                spec = specs[key]
                name, rate = spec.config.algorithm, spec.rate
                result: PointResult | None = event.result
                if event.kind == "result" and result.ok:
                    if profile_into is not None and result.profile is not None:
                        profile_into.merge_record(result.profile)
                    if journal is not None:
                        journal.record_success(
                            name,
                            rate,
                            result.point,
                            attempts=result.attempts,
                            resilience=result.resilience,
                        )
                    completed[key] = result.point
                    line = (
                        f"-> thr={result.point.throughput:.3f} flits/router/ns, "
                        f"lat={result.point.latency_ns:.1f} ns"
                    )
                elif event.kind == "result":
                    message = result.failures[-1]
                    if journal is not None:
                        journal.record_failure(
                            name, rate, result.attempts, message
                        )
                    if result.attempts < max_attempts:
                        specs[key] = replace(spec, attempt=result.attempts)
                        delay_s = _backoff_delay(
                            spec.retry_backoff_s, result.attempts
                        )
                        supervisor.submit(key, specs[key], delay_s=delay_s)
                    else:
                        failed[key] = message
                        attempts[key] = result.attempts
                    line = (
                        f"attempt {result.attempts}/{max_attempts} failed: "
                        f"{message}"
                    )
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
                    line = (
                        f"{event.kind} (crash {event.crashes}/"
                        f"{self.supervisor.quarantine_after}): {event.detail}"
                    )
                else:  # quarantined
                    if journal is not None:
                        journal.record_quarantined(
                            name, rate, crashes=event.crashes, error=event.detail
                        )
                    quarantined[key] = event.detail
                    attempts[key] = event.crashes
                    line = (
                        f"quarantined after {event.crashes} supervised "
                        f"crash(es)"
                    )
                if progress is not None:
                    progress(f"{name} rate={rate:.4g} {line}")
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

    # -- the sweep manifest ----------------------------------------------

    def _write_sweep_manifest(
        self,
        telemetry_dir: Path,
        algorithms: Sequence[str],
        rates: Sequence[float],
        journal: SweepJournal | None,
        wall_time_s: float,
        resumed_keys: set[tuple[str, str]],
        profile: PhaseProfiler | None = None,
        supervisor_summary: dict | None = None,
    ) -> None:
        """Merge the per-worker traces into one sweep-level manifest.

        Workers each write their own per-point trace file (no sink is
        ever shared across processes); this parent-side manifest is the
        piece that ties them back together -- one JSON document mapping
        every (algorithm, rate) to its trace file, alongside the pool
        shape and wall time, so ``repro obs`` users and notebooks can
        enumerate a parallel sweep's traces without globbing.  Points
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
        manifest = {
            "kind": "parallel-sweep-manifest",
            "workers": self.workers,
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
        if profile is not None:
            # The workers' merged phase attribution: where the pool's
            # aggregate wall time went (arbitration/traversal/delivery).
            manifest["profile"] = profile.to_record()["phases"]
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        path = telemetry_dir / "sweep_manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
