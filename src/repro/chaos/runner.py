"""Executing one chaos scenario with the full resilience layer armed.

:func:`run_scenario` is a module-level function of picklable arguments
so campaign workers can call it across a process boundary, exactly
like :func:`repro.sim.parallel.run_point_attempt`.  It
never raises for a *failing* scenario -- invariant violations,
deadlocks and drain failures are the campaign's product, not its
errors -- and instead classifies every run into a
:class:`ScenarioOutcome` whose digest is deterministic: it hashes only
simulation-derived values (status, detail, metrics, resilience
counts), never wall-clock time or paths, so the same scenario digests
identically across runs, worker counts and machines.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.chaos.scenario import ChaosScenario, canonical_json
from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import FaultInjector
from repro.resilience.invariants import (
    ArbitrationInvariants,
    InvariantChecker,
    InvariantConfig,
)
from repro.resilience.watchdog import ProgressWatchdog, WatchdogConfig
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.standalone import StandaloneConfig, StandaloneRouterModel
from repro.sim.timing_model import NetworkSimulator

#: every status a scenario can end in; anything but "ok" writes a bundle.
#: "timeout" is parent-assigned: a supervised worker was reaped at its
#: wall-clock deadline or heartbeat-staleness bound (see
#: repro.resilience.supervisor) before the scenario could finish.
OUTCOME_STATUSES = (
    "ok",
    "invariant-violation",
    "deadlock",
    "drain-failed",
    "crash",
    "timeout",
)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario run produced, in digest-stable form."""

    scenario_id: str
    status: str
    detail: str = ""
    metrics: dict = field(default_factory=dict)
    resilience: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise ValueError(
                f"status {self.status!r} not in {OUTCOME_STATUSES}"
            )

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def digest(self) -> str:
        """Content hash of everything simulation-derived (no wall time)."""
        return hashlib.sha256(
            canonical_json({
                "scenario_id": self.scenario_id,
                "status": self.status,
                "detail": self.detail,
                "metrics": self.metrics,
                "resilience": self.resilience,
            }).encode()
        ).hexdigest()

    def as_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "status": self.status,
            "detail": self.detail,
            "metrics": self.metrics,
            "resilience": self.resilience,
            "digest": self.digest(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioOutcome":
        """Inverse of :meth:`as_dict`; verifies the recorded digest."""
        outcome = cls(
            scenario_id=data["scenario_id"],
            status=data["status"],
            detail=data.get("detail", ""),
            metrics=data.get("metrics", {}),
            resilience=data.get("resilience", {}),
        )
        recorded = data.get("digest")
        if recorded is not None and recorded != outcome.digest():
            raise ValueError(
                f"outcome digest mismatch for {outcome.scenario_id!r}: "
                "record was edited or written by an incompatible version"
            )
        return outcome


def _finite(value: float) -> float | None:
    """NaN-free metric values (canonical JSON must stay strict)."""
    return None if value is None or math.isnan(value) else value


def _telemetry(trace_path) -> Telemetry | None:
    if trace_path is None:
        return None
    return Telemetry(sink=JsonlSink(trace_path))


def run_scenario(
    scenario: ChaosScenario, trace_path=None, heartbeat=None
) -> ScenarioOutcome:
    """Run one scenario, invariants and watchdog always armed.

    *trace_path* (optional) writes the scenario's full JSONL telemetry
    trace -- the campaign stores one per scenario and replay bundles
    embed its tail.  The trace never feeds back into simulation
    decisions, so outcomes digest identically with or without it.
    *heartbeat* (supervised campaign workers) is driven from inside
    the simulation loop and likewise never influences the outcome.
    """
    if scenario.kind == "standalone":
        return _run_standalone(scenario, trace_path, heartbeat)
    return _run_timing(scenario, trace_path, heartbeat)


def _crash_outcome(scenario: ChaosScenario, error: BaseException) -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        status="crash",
        detail=f"{type(error).__name__}: {error}",
    )


def _run_timing(
    scenario: ChaosScenario, trace_path, heartbeat=None
) -> ScenarioOutcome:
    config = SimulationConfig(
        algorithm=scenario.algorithm,
        network=NetworkConfig(width=scenario.width, height=scenario.height),
        traffic=TrafficConfig(
            pattern=scenario.pattern,
            injection_rate=scenario.injection_rate,
        ),
        warmup_cycles=scenario.warmup_cycles,
        measure_cycles=scenario.measure_cycles,
        seed=scenario.seed,
    )
    faults = scenario.fault_config()
    injector = FaultInjector(faults) if faults is not None else None
    # fail_fast=False: chaos wants the full violation list, not the
    # first one -- a failing scenario is data, not an exception.
    checker = InvariantChecker(InvariantConfig(fail_fast=False))
    dog = ProgressWatchdog(
        WatchdogConfig(
            window_cycles=scenario.watchdog_window,
            action="record",
            remediate=scenario.remediate,
        )
    )
    telemetry = _telemetry(trace_path)
    try:
        # Building the simulator is guarded too: a scenario the model
        # cannot even construct is a crash outcome, not an exception.
        simulator = NetworkSimulator(
            config,
            telemetry=telemetry,
            faults=injector,
            invariants=checker,
            watchdog=dog,
            heartbeat=heartbeat,
        )
        point = simulator.bnf_point()
        drained = simulator.drain(scenario.drain_budget)
        checker.check_network(simulator, full=True)
    except Exception as error:
        return _crash_outcome(scenario, error)
    finally:
        if telemetry is not None:
            telemetry.sink.close()
    if checker.violations:
        first = checker.violations[0]
        status = "invariant-violation"
        detail = (
            f"{len(checker.violations)} violation(s); first at cycle "
            f"{first.time:.1f} [{first.name}] {first.detail}"
        )
    elif not drained and dog.fired:
        status = "deadlock"
        detail = (
            f"watchdog fired {dog.fired}x and drain left "
            f"{simulator.total_buffered_packets()} buffered, "
            f"{simulator.total_pending_injections()} pending, "
            f"{simulator.packets_in_transit} in transit"
        )
    elif not drained:
        status = "drain-failed"
        detail = (
            f"drain budget {scenario.drain_budget:.0f} exhausted with "
            f"{simulator.total_buffered_packets()} buffered, "
            f"{simulator.total_pending_injections()} pending, "
            f"{simulator.packets_in_transit} in transit"
        )
    else:
        status, detail = "ok", ""
    metrics = {
        "offered_rate": point.offered_rate,
        "throughput": _finite(point.throughput),
        "latency_ns": _finite(point.latency_ns),
        "packets_delivered": point.packets_delivered,
        "delivered_total": simulator.total_delivered,
        "dropped_total": simulator.total_dropped,
    }
    resilience = {
        "fault_counts": dict(injector.counts) if injector else {},
        "faults_injected": injector.total_faults() if injector else 0,
        "invariant_checks": checker.checks_run,
        "invariant_violations": len(checker.violations),
        "watchdog_fires": dog.fired,
        "remediations_attempted": dog.remediations_attempted,
        "remediated": dog.remediated,
        "deadlocked": dog.deadlocked,
        "drained_clean": bool(drained),
    }
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        status=status,
        detail=detail,
        metrics=metrics,
        resilience=resilience,
    )


def _run_standalone(
    scenario: ChaosScenario, trace_path, heartbeat=None
) -> ScenarioOutcome:
    config = StandaloneConfig(
        algorithm=scenario.algorithm,
        load=scenario.load,
        occupancy=scenario.occupancy,
        trials=scenario.trials,
        seed=scenario.seed,
    )
    faults = scenario.fault_config()
    injector = FaultInjector(faults) if faults is not None else None
    invariants = ArbitrationInvariants(fail_fast=False)
    telemetry = _telemetry(trace_path)
    try:
        try:
            model = StandaloneRouterModel(
                config,
                telemetry=telemetry,
                invariants=invariants,
                faults=injector,
                heartbeat=heartbeat,
            )
            stats = model.run()
        except Exception as error:
            return _crash_outcome(scenario, error)
    finally:
        if telemetry is not None:
            telemetry.sink.close()
    if invariants.violations:
        first = invariants.violations[0]
        status = "invariant-violation"
        detail = (
            f"{len(invariants.violations)} violation(s); first at trial "
            f"{first.time:.0f} [{first.name}] {first.detail}"
        )
    else:
        status, detail = "ok", ""
    metrics = {
        "mean_matches": _finite(stats.mean),
        "trials": scenario.trials,
    }
    resilience = {
        "fault_counts": dict(injector.counts) if injector else {},
        "faults_injected": injector.total_faults() if injector else 0,
        "invariant_checks": invariants.checks_run,
        "invariant_violations": len(invariants.violations),
    }
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        status=status,
        detail=detail,
        metrics=metrics,
        resilience=resilience,
    )
