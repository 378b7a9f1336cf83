"""Load sweeps: produce Burton-Normal-Form curves from the timing model.

:func:`sweep_algorithms` is the one sweep driver, and its docstring the
one place every sweep option (guards, journal, resume, retries,
workers, traces) is described; :class:`SweepGuard` carries all of
them as one object from the command line to the figure runner.  The
driver plans the pending (algorithm, rate) points as
:class:`PointSpec`, lets an *executor* decide who runs each attempt,
and lands every :class:`PointResult` through one :class:`Landing` --
journal record, progress line, curve point -- so a serial sweep and a
pooled one differ only in the executor:

* the **serial executor** (:func:`_run_serial`) calls
  :func:`run_attempt` in this process, point by point in sweep order.
  It is the byte-identity reference every pooled/supervised/fleet test
  compares against, so it stays a plain loop;
* the **pooled executor** (:func:`repro.sim.parallel.run_pooled`)
  feeds the same specs to scheduler-owned workers that call the same
  :func:`run_attempt`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.resilience.checkpoint import SweepJournal, rate_key
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


@dataclass(frozen=True)
class SweepGuard:
    """Every option of a figure sweep, as one object.

    The CLI builds one and the figure runner
    (:func:`repro.experiments.figure10.run_panel`) hands it to
    :func:`sweep_algorithms`; every field but ``journal_path`` is that
    function's option of the same name.  ``journal_path`` and
    ``telemetry_dir`` may be directories shared by several panels;
    :meth:`scoped` then derives each panel's journal file and trace
    directory so identical (algorithm, rate) points in different panels
    never collide.
    """

    faults: FaultConfig | None = None
    invariants: InvariantConfig | None = None
    watchdog: WatchdogConfig | None = None
    journal_path: Path | str | None = None
    resume: bool = False
    max_attempts: int = 1
    supervisor: SupervisorConfig | None = None
    fleet: object | None = None
    telemetry_dir: Path | str | None = None
    workers: int = 1

    def scoped(self, name: str) -> "SweepGuard":
        """A copy whose journal lives at ``<journal_path>/<name>.journal.jsonl``
        and whose traces go to ``<telemetry_dir>/<name>/`` (each when set)."""
        journal, traces = self.journal_path, self.telemetry_dir
        return replace(
            self,
            journal_path=None if journal is None
            else Path(journal) / f"{name}.journal.jsonl",
            telemetry_dir=None if traces is None else Path(traces) / name,
        )

    def sweep_kwargs(self) -> dict:
        """The keyword arguments :func:`sweep_algorithms` expects."""
        kwargs = {item.name: getattr(self, item.name) for item in fields(self)}
        path = kwargs.pop("journal_path")
        kwargs["journal"] = SweepJournal(path) if path is not None else None
        return kwargs


class SweepPointError(RuntimeError):
    """A sweep point kept failing after its retry budget ran out.

    *error* is the last attempt's ``"TypeName: message"`` text.
    """

    def __init__(
        self, algorithm: str, rate: float, attempts: int, error: str
    ) -> None:
        self.algorithm = algorithm
        self.rate = rate
        self.attempts = attempts
        super().__init__(
            f"{algorithm} rate={rate!r} failed {attempts} attempt(s): {error}"
        )


@dataclass(frozen=True)
class PointSpec:
    """One attempt of one sweep point, picklable across a spawn boundary.

    Resilience settings travel as their *config* dataclasses; the
    attempt builds the live injector/checker/watchdog itself, because
    those carry RNG state and open-ended references that must not leak
    between points (and would not survive pickling meaningfully).
    """

    config: SimulationConfig
    rate: float
    telemetry_dir: Path | str | None
    collect_counters: bool
    faults: FaultConfig | None
    invariants: InvariantConfig | None
    watchdog: WatchdogConfig | None
    #: which attempt this spec runs (0-based); the executor bumps it
    #: when rescheduling a failed point, and :func:`_run_point` derives
    #: the attempt's seed bumps from it.
    attempt: int = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.config.algorithm, rate_key(self.rate))


@dataclass(frozen=True)
class PointResult:
    """What one attempt hands back: a point, or why there is none."""

    algorithm: str
    rate: float
    attempts: int
    point: BNFPoint | None
    resilience: dict | None
    #: pre-formatted ``"TypeName: message"`` of a failed attempt, the
    #: exact text the journal and the progress line carry.
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.point is not None


def _point_telemetry(spec: PointSpec) -> Telemetry | None:
    if spec.telemetry_dir is not None:
        path = Path(spec.telemetry_dir) / trace_filename(
            spec.config.algorithm, spec.rate
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        return Telemetry(sink=JsonlSink(path))
    if spec.collect_counters:
        return Telemetry()
    return None


def _run_point(
    spec: PointSpec,
    telemetry: Telemetry | None,
    heartbeat: Callable[[], None] | None,
) -> tuple[BNFPoint, dict | None]:
    """One guarded point; returns (point, resilience summary or None).

    Retries re-seed both the simulation and the fault schedule (a
    deterministic failure would otherwise recur verbatim), keeping the
    first attempt byte-identical to an unguarded run.  *heartbeat*
    (supervised workers) is called from inside the event loop on a
    cycle cadence; it never influences the simulation itself.
    """
    config, rate, attempt, faults = spec.config, spec.rate, spec.attempt, spec.faults
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
    checker = (
        InvariantChecker(spec.invariants) if spec.invariants is not None else None
    )
    dog = ProgressWatchdog(spec.watchdog) if spec.watchdog is not None else None
    simulator = NetworkSimulator(
        point_config,
        telemetry=telemetry,
        faults=injector,
        invariants=checker,
        watchdog=dog,
        heartbeat=heartbeat,
    )
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


def run_attempt(spec: PointSpec, heartbeat=None) -> PointResult:
    """Run exactly one attempt of one sweep point, in this process.

    Both executors call this -- the serial loop directly, a pooled
    worker through :func:`repro.sim.parallel.run_point_attempt` -- so a
    point's result never depends on who ran it.  Retry scheduling is
    the executor's job: a failed attempt returns immediately.  *heartbeat* is threaded into the simulator's
    heartbeat tick (the beat comes from inside the event loop, so a
    wedged simulation goes silent and gets reaped).
    """
    algorithm = spec.config.algorithm
    telemetry = _point_telemetry(spec)
    try:
        point, resilience = _run_point(spec, telemetry, heartbeat)
    except Exception as error:
        return PointResult(
            algorithm, spec.rate, spec.attempt + 1, None, None,
            error=f"{type(error).__name__}: {error}",
        )
    return PointResult(algorithm, spec.rate, spec.attempt + 1, point, resilience)


@dataclass
class Landing:
    """Where every attempt's outcome lands, whoever ran the attempt.

    One per sweep: it journals attempts, emits the progress lines and
    collects the points the curves are assembled from (``completed``,
    keyed like :attr:`PointSpec.key`).
    """

    journal: SweepJournal | None
    progress: Callable[[str], None] | None
    max_attempts: int
    completed: dict[tuple[str, str], BNFPoint] = field(default_factory=dict)

    def say(self, algorithm: str, rate: float, line: str) -> None:
        if self.progress is not None:
            self.progress(f"{algorithm} rate={rate:.4g} {line}")

    def land(self, result: PointResult) -> None:
        """Journal one finished attempt and, on success, keep its point."""
        name, rate = result.algorithm, result.rate
        if not result.ok:
            if self.journal is not None:
                self.journal.record_failure(
                    name, rate, result.attempts, result.error
                )
            self.say(
                name, rate,
                f"attempt {result.attempts}/{self.max_attempts} failed: "
                f"{result.error}",
            )
            return
        if self.journal is not None:
            self.journal.record_success(
                name,
                rate,
                result.point,
                attempts=result.attempts,
                resilience=result.resilience,
            )
        self.completed[name, rate_key(rate)] = result.point
        self.say(
            name, rate,
            f"-> thr={result.point.throughput:.3f} flits/router/ns, "
            f"lat={result.point.latency_ns:.1f} ns",
        )


def _run_serial(pending: list[PointSpec], landing: Landing) -> None:
    """The serial executor: every point in sweep order, in this process.

    The byte-identity reference for the pooled executor.  It stops at
    the first point that exhausts its attempts.
    """
    for spec in pending:
        while True:
            result = run_attempt(spec)
            landing.land(result)
            if result.ok:
                break
            if result.attempts >= landing.max_attempts:
                raise SweepPointError(
                    result.algorithm, result.rate, result.attempts, result.error
                )
            spec = replace(spec, attempt=result.attempts)


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
    workers: int = 1,
    supervisor: SupervisorConfig | None = None,
    fleet=None,
) -> dict[str, BNFCurve]:
    """Run several algorithms over the same loads (one Figure 10 panel).

    The one sweep driver (see the module docstring): one resume scan,
    one journal lock, one executor, one :class:`Landing`; the curves'
    points come back in *rates* order.

    Args:
        config: base configuration; algorithm and rate are filled in
            per point.
        algorithms: the curves to produce.
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
        faults: inject this fault schedule into every point (re-seeded
            per retry attempt).
        invariants: run periodic invariant sweeps in every point; any
            violation fails the point (and triggers a retry).
        watchdog: attach a progress watchdog to every point.
        journal: checkpoint every finished point (and every failure)
            to this :class:`~repro.resilience.SweepJournal`.  The
            sweep holds the journal's lock, so a concurrent run over
            the same journal fails fast instead of interleaving lines.
        resume: with a journal, skip points whose latest record is a
            success and splice the journalled
            :class:`~repro.sim.metrics.BNFPoint` into the curve; a
            resumed sweep that finishes compacts the journal (the
            retry history is dead weight by then).
        max_attempts: tries per point before giving up; retries bump
            the simulation and fault seeds so a deterministic failure
            is not replayed verbatim.
        workers: 1 (the default) runs every point in this process, in
            sweep order, and raises :class:`SweepPointError` at the
            first point that exhausts *max_attempts*.  With
            ``workers > 1`` all points of all algorithms share one set
            of fresh-interpreter workers under the
            :class:`~repro.resilience.PointSupervisor` scheduler, with
            bitwise identical per-point results: a dead worker is
            replaced and its point retried, a point that fails every
            attempt or keeps crashing workers is journalled, and the
            sweep raises
            :class:`~repro.sim.parallel.SweepSupervisionError` (a
            :class:`SweepPointError`) only after every healthy point
            landed.
        supervisor: the scheduler's tuning -- a per-point deadline and
            heartbeat-staleness bound (both off by default) at which
            hung workers are reaped, and the ``quarantine_after``
            crash count.  Ignored by the serial executor (there is no
            worker process to supervise).
        fleet: a live :class:`repro.service.ServiceServer`; points are
            leased to its connected remote workers regardless of
            *workers*.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    pooled = workers > 1 or fleet is not None
    resume = resume and journal is not None
    landing = Landing(journal, progress, max_attempts)
    pending: list[PointSpec] = []
    for algorithm in algorithms:
        algo_config = config.with_algorithm(algorithm)
        for rate in rates:
            cached = journal.completed_point(algorithm, rate) if resume else None
            if cached is not None:
                landing.completed[algorithm, rate_key(rate)] = cached
                landing.say(algorithm, rate, "-> resumed from journal")
                continue
            pending.append(PointSpec(
                config=algo_config,
                rate=rate,
                telemetry_dir=telemetry_dir,
                collect_counters=collect_counters,
                faults=faults,
                invariants=invariants,
                watchdog=watchdog,
            ))
    with journal.lock() if journal is not None else nullcontext():
        if pooled:
            from repro.sim.parallel import run_pooled

            run_pooled(
                pending, landing, algorithms, rates, telemetry_dir,
                workers, supervisor, fleet,
            )
        else:
            _run_serial(pending, landing)
        if resume:
            journal.compact()
    return {
        algorithm: BNFCurve(
            label=algorithm,
            points=[landing.completed[algorithm, rate_key(rate)] for rate in rates],
        )
        for algorithm in algorithms
    }


def sweep_algorithm(
    config: SimulationConfig, rates: Sequence[float], **options
) -> BNFCurve:
    """Sweep ``config.algorithm`` alone: one curve.

    *options* are :func:`sweep_algorithms`' keyword arguments.
    """
    curves = sweep_algorithms(config, (config.algorithm,), rates, **options)
    return curves[config.algorithm]


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
