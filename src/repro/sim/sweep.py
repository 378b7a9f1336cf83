"""Load sweeps: produce Burton-Normal-Form curves from the timing model.

Sweeps can run *guarded*: pass a fault schedule
(:class:`~repro.resilience.FaultConfig`), an invariant cadence
(:class:`~repro.resilience.InvariantConfig`) and/or a watchdog
(:class:`~repro.resilience.WatchdogConfig`) and every point runs with
the resilience layer attached; pass a
:class:`~repro.resilience.SweepJournal` and every finished point is
checkpointed, failed points are retried with fresh seeds (and optional
wall-clock backoff), and a re-run with ``resume=True`` skips the
points already journalled -- a crashed hours-long paper-preset sweep
restarts where it stopped instead of from zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.profiler import PhaseProfiler
from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.resilience.invariants import InvariantChecker, InvariantConfig
from repro.resilience.supervisor import SupervisorConfig
from repro.resilience.watchdog import ProgressWatchdog, WatchdogConfig
from repro.sim.config import SimulationConfig
from repro.sim.metrics import BNFCurve, BNFPoint
from repro.sim.timing_model import NetworkSimulator


def trace_filename(algorithm: str, rate: float) -> str:
    """Canonical per-point trace name, e.g. ``SPAA-base_rate0.01.jsonl``.

    The rate is rendered with ``repr`` -- Python's shortest exact
    round-trip form -- so distinct floats always get distinct files:
    ``0.3`` and the accumulation artifact ``0.30000000000000004`` were
    previously collapsed to the same ``%g`` name, silently overwriting
    one point's trace with the other's.
    """
    return f"{algorithm}_rate{float(rate)!r}.jsonl"


def parse_trace_filename(name: str) -> tuple[str, float]:
    """Invert :func:`trace_filename` (exact: repr round-trips floats).

    Splits on the *rightmost* ``_rate`` marker, so algorithm labels
    containing underscores survive.
    """
    stem = name[: -len(".jsonl")] if name.endswith(".jsonl") else name
    algorithm, sep, rate_text = stem.rpartition("_rate")
    if not sep or not algorithm:
        raise ValueError(f"not a sweep trace filename: {name!r}")
    try:
        rate = float(rate_text)
    except ValueError as error:
        raise ValueError(f"not a sweep trace filename: {name!r}") from error
    return algorithm, rate


def _point_telemetry(
    algorithm: str,
    rate: float,
    telemetry_dir: Path | str | None,
    collect_counters: bool,
    profile: bool = False,
) -> Telemetry | None:
    if telemetry_dir is not None:
        path = Path(telemetry_dir) / trace_filename(algorithm, rate)
        path.parent.mkdir(parents=True, exist_ok=True)
        return Telemetry(sink=JsonlSink(path), profile=profile)
    if collect_counters or profile:
        return Telemetry(profile=profile)
    return None


@dataclass(frozen=True)
class SweepGuard:
    """One bundle of resilience settings for a (multi-)sweep.

    The figure runners (:mod:`repro.experiments.figure10` / ``figure11``)
    and the CLI thread this single object down to
    :func:`sweep_algorithm` instead of seven loose keyword arguments.
    ``journal_path`` may be a directory; :meth:`scoped` then derives a
    per-panel journal file so identical (algorithm, rate) points in
    different panels never collide.
    """

    faults: FaultConfig | None = None
    invariants: InvariantConfig | None = None
    watchdog: WatchdogConfig | None = None
    journal_path: Path | str | None = None
    resume: bool = False
    max_attempts: int = 1
    retry_backoff_s: float = 0.0
    #: tuning for the scheduler every pooled sweep runs under
    #: (per-point deadline, heartbeat staleness, quarantine); serial
    #: sweeps ignore it -- there is no worker process to supervise.
    supervisor: SupervisorConfig | None = None
    #: a live :class:`repro.service.ServiceServer` -- sweep points are
    #: leased to the connected remote fleet instead of a local pool.
    fleet: object | None = None

    def scoped(self, name: str) -> "SweepGuard":
        """A copy whose journal lives at ``<journal_path>/<name>.journal.jsonl``."""
        if self.journal_path is None:
            return self
        return replace(
            self,
            journal_path=Path(self.journal_path) / f"{name}.journal.jsonl",
        )

    def sweep_kwargs(self) -> dict:
        """The keyword arguments :func:`sweep_algorithm` expects."""
        return {
            "faults": self.faults,
            "invariants": self.invariants,
            "watchdog": self.watchdog,
            "journal": (
                SweepJournal(self.journal_path)
                if self.journal_path is not None
                else None
            ),
            "resume": self.resume,
            "max_attempts": self.max_attempts,
            "retry_backoff_s": self.retry_backoff_s,
            "supervisor": self.supervisor,
            "fleet": self.fleet,
        }


class SweepPointError(RuntimeError):
    """A sweep point kept failing after its retry budget ran out."""

    def __init__(
        self, algorithm: str, rate: float, attempts: int, cause: BaseException
    ) -> None:
        self.algorithm = algorithm
        self.rate = rate
        self.attempts = attempts
        super().__init__(
            f"{algorithm} rate={rate!r} failed {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )


def _run_point(
    config: SimulationConfig,
    rate: float,
    telemetry: Telemetry | None,
    observer_factory,
    faults: FaultConfig | None,
    invariants: InvariantConfig | None,
    watchdog: WatchdogConfig | None,
    attempt: int,
    heartbeat: Callable[[], None] | None = None,
    heartbeat_interval_cycles: float = 1_000.0,
) -> tuple[BNFPoint, dict | None]:
    """One guarded point; returns (point, resilience summary or None).

    Retries re-seed both the simulation and the fault schedule (a
    deterministic failure would otherwise recur verbatim), keeping the
    first attempt byte-identical to an unguarded run.  *heartbeat*
    (supervised workers) is called from inside the event loop on a
    cycle cadence; it never influences the simulation itself.
    """
    point_config = config.with_rate(rate)
    if attempt:
        point_config = replace(
            point_config, seed=point_config.seed + 7919 * attempt
        )
    injector = (
        FaultInjector(faults.with_seed(faults.seed + attempt))
        if faults is not None
        else None
    )
    checker = InvariantChecker(invariants) if invariants is not None else None
    dog = ProgressWatchdog(watchdog) if watchdog is not None else None
    simulator = NetworkSimulator(
        point_config,
        telemetry=telemetry,
        faults=injector,
        invariants=checker,
        watchdog=dog,
        heartbeat=heartbeat,
        heartbeat_interval_cycles=heartbeat_interval_cycles,
    )
    if observer_factory is not None:
        for observer in observer_factory(config.algorithm, rate):
            simulator.attach_observer(observer)
    point = simulator.bnf_point()
    if injector is None and checker is None and dog is None:
        return point, None
    # Guarded points quiesce the network so the accounting closes: a
    # run that cannot drain is a failure (deadlock), not a data point.
    drained = simulator.drain()
    if checker is not None:
        checker.check_network(simulator, full=True)
        checker.raise_if_violated()
    if not drained:
        raise RuntimeError(
            f"network failed to quiesce: {simulator.total_buffered_packets()} "
            f"buffered, {simulator.total_pending_injections()} pending, "
            f"{simulator.packets_in_transit} in transit after drain budget"
        )
    resilience = {
        "faults_injected": injector.total_faults() if injector else 0,
        "fault_counts": dict(injector.counts) if injector else {},
        "link_retries": simulator.stats.link_retries,
        "packets_dropped": simulator.stats.packets_dropped,
        "invariant_checks": checker.checks_run if checker else 0,
        "invariant_violations": len(checker.violations) if checker else 0,
        "watchdog_fires": dog.fired if dog else 0,
        "drained_clean": drained,
    }
    return point, resilience


def sweep_algorithm(
    config: SimulationConfig,
    rates: Sequence[float],
    progress: Callable[[str], None] | None = None,
    telemetry_dir: Path | str | None = None,
    collect_counters: bool = False,
    observer_factory: Callable[[str, float], Sequence] | None = None,
    faults: FaultConfig | None = None,
    invariants: InvariantConfig | None = None,
    watchdog: WatchdogConfig | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
    max_attempts: int = 1,
    retry_backoff_s: float = 0.0,
    workers: int = 1,
    supervisor: SupervisorConfig | None = None,
    fleet=None,
    profile_into: PhaseProfiler | None = None,
) -> BNFCurve:
    """Run one algorithm over a set of offered loads.

    Args:
        config: base configuration; the rate is filled in per point.
        rates: offered loads to sweep.
        progress: optional per-point status callback.
        telemetry_dir: when set, each point writes a JSONL telemetry
            trace (``<algorithm>_rate<rate>.jsonl``) into this
            directory, readable with ``repro obs summarize``, and the
            returned points carry their arbiter counters.
        collect_counters: attach sink-less telemetry so every
            :class:`~repro.sim.metrics.BNFPoint` carries its
            per-algorithm nomination/grant/conflict counters without
            writing trace files.  Implied by *telemetry_dir*.
        observer_factory: called as ``factory(algorithm, rate)`` before
            each point; the returned observers (see
            :mod:`repro.sim.observers`) are attached to that point's
            simulator.
        faults: inject this fault schedule into every point (re-seeded
            per retry attempt).
        invariants: run periodic invariant sweeps in every point; any
            violation fails the point (and triggers a retry).
        watchdog: attach a progress watchdog to every point.
        journal: checkpoint every finished point (and every failure)
            to this :class:`~repro.resilience.SweepJournal`.
        resume: with a journal, skip points whose latest record is a
            success and splice the journalled
            :class:`~repro.sim.metrics.BNFPoint` into the curve.
        max_attempts: tries per point before giving up; retries bump
            the simulation and fault seeds so a deterministic failure
            is not replayed verbatim.
        retry_backoff_s: wall-clock sleep before attempt *n* grows as
            ``retry_backoff_s * 2**(n-1)`` (0 disables sleeping).
        workers: with ``workers > 1`` the points run on spawn-context
            workers under the :class:`~repro.resilience.PointSupervisor`
            scheduler (see :mod:`repro.sim.parallel`) with bitwise
            identical per-point results: a dead worker is replaced and
            its point retried, a point that fails every attempt or
            keeps crashing workers is journalled, and the sweep raises
            :class:`~repro.sim.parallel.SweepSupervisionError` (a
            :class:`SweepPointError`) only after every healthy point
            landed.  1 (the default) keeps the serial in-process path.
        supervisor: the scheduler's tuning -- a per-point deadline and
            heartbeat-staleness bound (both off by default) at which
            hung workers are reaped, and the ``quarantine_after``
            crash count.  Ignored by the serial path (there is no
            worker process to supervise).
        fleet: a live :class:`repro.service.ServiceServer`; points are
            leased to its connected remote workers regardless of
            *workers*.
        profile_into: when set, every point runs with phase profiling
            enabled and its arbitration/traversal/delivery wall-time
            attribution is merged into this
            :class:`~repro.obs.profiler.PhaseProfiler` -- serial points
            by direct merge, pooled points via the serialized profile
            record the worker ships back.  Points resumed from a
            journal contribute nothing (they did not run).
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if workers > 1 or fleet is not None:
        if observer_factory is not None:
            raise ValueError(
                "observer_factory is not supported with workers > 1 "
                "(observers cannot cross the process boundary); attach "
                "telemetry instead or run serially"
            )
        from repro.sim.parallel import ParallelSweepRunner

        return ParallelSweepRunner(
            workers=workers, supervisor=supervisor, fleet=fleet
        ).run_algorithm(
            config,
            rates,
            progress=progress,
            telemetry_dir=telemetry_dir,
            collect_counters=collect_counters,
            faults=faults,
            invariants=invariants,
            watchdog=watchdog,
            journal=journal,
            resume=resume,
            max_attempts=max_attempts,
            retry_backoff_s=retry_backoff_s,
            profile_into=profile_into,
        )
    curve = BNFCurve(label=config.algorithm)
    # Mark this process as the journal's single writer for the whole
    # sweep; a concurrent run over the same journal fails fast instead
    # of interleaving checkpoint lines.
    lock = journal.lock() if journal is not None else None
    if lock is not None:
        lock.acquire()
    try:
        for rate in rates:
            if resume and journal is not None:
                cached = journal.completed_point(config.algorithm, rate)
                if cached is not None:
                    curve.add(cached)
                    if progress is not None:
                        progress(
                            f"{config.algorithm} rate={rate:.4g} -> resumed "
                            f"from journal"
                        )
                    continue
            point = None
            resilience = None
            attempts = 0
            for attempt in range(max_attempts):
                attempts = attempt + 1
                if attempt and retry_backoff_s > 0:
                    time.sleep(retry_backoff_s * 2 ** (attempt - 1))
                telemetry = _point_telemetry(
                    config.algorithm,
                    rate,
                    telemetry_dir,
                    collect_counters,
                    profile=profile_into is not None,
                )
                try:
                    point, resilience = _run_point(
                        config,
                        rate,
                        telemetry,
                        observer_factory,
                        faults,
                        invariants,
                        watchdog,
                        attempt,
                    )
                    break
                except Exception as error:
                    if journal is not None:
                        journal.record_failure(
                            config.algorithm, rate, attempts, error
                        )
                    if progress is not None:
                        progress(
                            f"{config.algorithm} rate={rate:.4g} attempt "
                            f"{attempts}/{max_attempts} failed: "
                            f"{type(error).__name__}: {error}"
                        )
                    if attempts >= max_attempts:
                        raise SweepPointError(
                            config.algorithm, rate, attempts, error
                        ) from error
            assert point is not None
            if profile_into is not None and telemetry is not None:
                profile_into.merge(telemetry.profiler)
            if journal is not None:
                journal.record_success(
                    config.algorithm,
                    rate,
                    point,
                    attempts=attempts,
                    resilience=resilience,
                )
            curve.add(point)
            if progress is not None:
                progress(
                    f"{config.algorithm} rate={rate:.4g} -> "
                    f"thr={point.throughput:.3f} flits/router/ns, "
                    f"lat={point.latency_ns:.1f} ns"
                )
        if resume and journal is not None:
            # The sweep finished with every point journalled as a
            # success; retry history is now dead weight, so rewrite
            # latest-wins.
            journal.compact()
    finally:
        if lock is not None:
            lock.release()
    return curve


def sweep_algorithms(
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
    workers: int = 1,
    supervisor: SupervisorConfig | None = None,
    fleet=None,
    profile_into: PhaseProfiler | None = None,
) -> dict[str, BNFCurve]:
    """Run several algorithms over the same loads (one Figure 10 panel).

    With ``workers > 1`` every (algorithm, rate) point of the whole
    panel is fanned out over one shared worker pool (see
    :mod:`repro.sim.parallel`); with *fleet* set, over the service's
    connected remote workers.  Either way a slow algorithm's
    saturation tail overlaps the next algorithm's points instead of
    serializing.
    """
    if workers > 1 or fleet is not None:
        from repro.sim.parallel import ParallelSweepRunner

        return ParallelSweepRunner(
            workers=workers, supervisor=supervisor, fleet=fleet
        ).run(
            config,
            algorithms,
            rates,
            progress=progress,
            telemetry_dir=telemetry_dir,
            collect_counters=collect_counters,
            faults=faults,
            invariants=invariants,
            watchdog=watchdog,
            journal=journal,
            resume=resume,
            max_attempts=max_attempts,
            retry_backoff_s=retry_backoff_s,
            profile_into=profile_into,
        )
    return {
        algorithm: sweep_algorithm(
            config.with_algorithm(algorithm),
            rates,
            progress,
            telemetry_dir=telemetry_dir,
            collect_counters=collect_counters,
            faults=faults,
            invariants=invariants,
            watchdog=watchdog,
            journal=journal,
            resume=resume,
            max_attempts=max_attempts,
            retry_backoff_s=retry_backoff_s,
            profile_into=profile_into,
        )
        for algorithm in algorithms
    }


def sweep_standalone(
    configs: Sequence,
    faults=None,
    backend: str = "object",
    progress: Callable[[str], None] | None = None,
) -> list[float]:
    """Mean matches for a list of standalone-model configurations.

    The standalone twin of :func:`sweep_algorithm`: the Figure 8/9
    runners build one :class:`~repro.sim.standalone.StandaloneConfig`
    per curve point and this evaluates them in order.  *backend*
    selects the object oracle or the vectorized kernels for every
    point; *faults* applies one matching-layer fault schedule to all
    of them.
    """
    from repro.sim.standalone import measure_matches

    means: list[float] = []
    for config in configs:
        mean = measure_matches(config, faults=faults, backend=backend)
        means.append(mean)
        if progress is not None:
            progress(
                f"{config.algorithm} load={config.load} "
                f"occ={config.occupancy:.2g} -> {mean:.3f} matches"
            )
    return means


def geometric_rates(low: float, high: float, count: int) -> list[float]:
    """Geometrically spaced offered loads (dense near saturation)."""
    if count < 2:
        raise ValueError("need at least two rates")
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    ratio = (high / low) ** (1.0 / (count - 1))
    return [low * ratio**i for i in range(count)]


def throughput_gain_at_latency(
    winner: BNFCurve, loser: BNFCurve, latency_ns: float
) -> float:
    """Relative throughput advantage at a fixed average latency.

    This is how the paper states results ("SPAA-base provides about
    11% higher throughput ... when the average packet latency is about
    83 nanoseconds"): both curves are cut at the same latency and the
    throughputs compared.
    """
    winner_throughput = winner.throughput_at_latency(latency_ns)
    loser_throughput = loser.throughput_at_latency(latency_ns)
    if loser_throughput <= 0:
        return float("inf")
    return winner_throughput / loser_throughput - 1.0
