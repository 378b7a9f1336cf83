"""Running a scenario list as a checkpointed, resumable campaign.

The campaign rides the existing resilience machinery: completed
scenarios checkpoint into a :class:`~repro.resilience.SweepJournal`
(keyed ``(scenario_id, float(index))`` via its generic outcome API) so
a killed campaign resumes where it stopped; ``workers > 1``, a
:class:`~repro.resilience.SupervisorConfig` or a fleet hands the
scenarios to the one :class:`~repro.resilience.PointSupervisor`
scheduler (local spawn workers, or remote ones) with the parent as the
single journal writer, mirroring the sweeps' pooled executor
(:func:`repro.sim.parallel.run_pooled`).  Every failing
scenario is captured as a self-contained replay bundle (and optionally
shrunk to a minimal reproducer) the moment the campaign sees it.

The campaign manifest (``campaign_manifest.json``) is deliberately
free of wall-clock anything: the same campaign seed must produce a
byte-identical manifest across runs, worker counts and machines --
that file *is* the determinism contract the tests pin down.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.chaos.replay import write_bundle
from repro.chaos.runner import ScenarioOutcome, run_scenario
from repro.chaos.scenario import (
    ChaosScenario,
    ScenarioSpace,
    generate_scenarios,
    injected_deadlock_scenario,
)
from repro.chaos.shrink import shrink_scenario, write_minimal
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.supervisor import PointSupervisor, SupervisorConfig
from repro.sim.parallel import _claim_once_file

#: test-only hook mirroring repro.sim.parallel's point hooks: wedge the
#: worker that picks up a matching scenario_id (or "*"), honouring the
#: shared REPRO_TEST_FAULT_ONCE_FILE claim for wedge-once-then-recover.
WEDGE_SCENARIO_ENV = "REPRO_TEST_WEDGE_SCENARIO"

CAMPAIGN_SCHEMA = 1

#: manifest filename inside the campaign output directory.
MANIFEST_NAME = "campaign_manifest.json"
JOURNAL_NAME = "campaign.journal.jsonl"

#: Static outcome details for infrastructure failures.  Deliberately
#: wall-clock-free and shared by local and fleet runs: the campaign
#: manifest must stay byte-identical across runs, hosts and backends.
TIMEOUT_DETAIL = (
    "reaped by supervisor: wall-clock deadline or "
    "heartbeat staleness exceeded"
)
CRASH_DETAIL = "worker lost under supervision"
#: scheduler crash kind -> the terminal outcome's (status, detail).
_INFRASTRUCTURE_OUTCOMES = {
    "timeout": ("timeout", TIMEOUT_DETAIL),
    "worker-lost": ("crash", CRASH_DETAIL),
}


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos campaign: what to generate, where to put the evidence."""

    output_dir: Path
    seed: int = 0
    count: int = 20
    space: ScenarioSpace = field(default_factory=ScenarioSpace)
    include_standalone: bool = True
    #: append the guaranteed-deadlock scenario (CI's capture-path probe).
    inject_deadlock: bool = False
    workers: int = 1
    resume: bool = False
    #: delta-debug every (non-crash) failure down to a minimal reproducer.
    shrink_failures: bool = False
    #: write one JSONL telemetry trace per scenario under ``traces/``.
    traces: bool = True
    #: the scheduler's deadline and staleness bound; a lost or reaped
    #: local worker costs its scenario a terminal "crash"/"timeout"
    #: outcome -- chaos outcomes are data, so nothing is retried.  Set,
    #: it also adds the manifest's ``supervisor`` section.
    supervisor: SupervisorConfig | None = None
    #: a live :class:`repro.service.ServiceServer`; scenarios are
    #: leased to its remote workers.  Unlike on a local pool,
    #: *infrastructure* crashes (a killed or wedged fleet worker) are
    #: retried up to quarantine, so a chaotic fleet converges on the
    #: same manifest a healthy single-host run produces.
    fleet: object | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def count_total(self) -> int:
        """Scenarios per run, the injected-deadlock probe included."""
        return self.count + (1 if self.inject_deadlock else 0)


@dataclass
class CampaignResult:
    """Everything a caller needs after :func:`run_campaign` returns."""

    scenarios: list[ChaosScenario]
    outcomes: dict[int, ScenarioOutcome]
    #: failing scenarios, in index order: (scenario, outcome, bundle path).
    failures: list[tuple[ChaosScenario, ScenarioOutcome, Path]]
    manifest_path: Path
    resumed: int = 0

    @property
    def crashed(self) -> list[tuple[ChaosScenario, ScenarioOutcome, Path]]:
        """Harness-level failures (the only ones that fail a campaign)."""
        return [entry for entry in self.failures if entry[1].status == "crash"]

    def status_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for outcome in self.outcomes.values():
            totals[outcome.status] = totals.get(outcome.status, 0) + 1
        return dict(sorted(totals.items()))


def campaign_scenarios(config: CampaignConfig) -> list[ChaosScenario]:
    """The campaign's full scenario list (pure; shared with resume)."""
    scenarios = generate_scenarios(
        config.seed,
        config.count,
        space=config.space,
        include_standalone=config.include_standalone,
    )
    if config.inject_deadlock:
        scenarios.append(
            injected_deadlock_scenario(len(scenarios), config.space)
        )
    return scenarios


def _trace_path(config: CampaignConfig, scenario: ChaosScenario) -> str | None:
    if not config.traces:
        return None
    return str(
        Path(config.output_dir) / "traces" / f"{scenario.scenario_id}.jsonl"
    )


def _run_serial(
    config: CampaignConfig,
    todo: list[ChaosScenario],
    journal: SweepJournal,
    outcomes: dict[int, ScenarioOutcome],
    progress: Callable[[str], None] | None,
) -> None:
    for scenario in todo:
        outcome = run_scenario(scenario, _trace_path(config, scenario))
        journal.record_outcome(
            scenario.scenario_id, float(scenario.index), outcome.as_dict()
        )
        outcomes[scenario.index] = outcome
        if progress is not None:
            progress(
                f"[{scenario.index + 1}/{config.count_total()}] "
                f"{scenario.scenario_id} ({scenario.kind}, "
                f"{scenario.algorithm}) -> {outcome.status}"
            )


def _maybe_wedge_scenario(scenario: ChaosScenario) -> None:
    wedge = os.environ.get(WEDGE_SCENARIO_ENV)
    if not wedge or wedge not in ("*", scenario.scenario_id):
        return
    if not _claim_once_file():
        return
    while True:  # no heartbeats: the supervisor must reap us
        time.sleep(3600)


def _supervised_scenario(payload, heartbeat) -> ScenarioOutcome:
    """The scheduler's task runner: payload is (scenario, trace_path)."""
    scenario, trace_path = payload
    _maybe_wedge_scenario(scenario)
    return run_scenario(scenario, trace_path, heartbeat=heartbeat)


def _run_scheduled(
    config: CampaignConfig,
    todo: list[ChaosScenario],
    journal: SweepJournal,
    outcomes: dict[int, ScenarioOutcome],
    progress: Callable[[str], None] | None,
) -> None:
    """Fan scenarios over the scheduler's holders, local or remote.

    The only policy difference is ``resubmit_crashed``.  On a local
    pool it is off and chaos outcomes are data: a worker that dies
    costs its own scenario a ``crash`` outcome (the pool replenishes)
    and one reaped at the configured bound a ``timeout``.  On a fleet
    it is on: losing a worker mid-scenario is coordinator weather, so
    the scenario is re-leased, the re-run's deterministic outcome lands
    instead, and only a scenario that crashes workers all the way to
    quarantine gets a terminal infrastructure outcome.
    """
    by_index = {scenario.index: scenario for scenario in todo}
    holders = min(config.workers, len(todo))
    if config.fleet is not None:
        from repro.service.coordinator import FleetTransport

        holders = FleetTransport(config.fleet)
    scheduler = PointSupervisor(
        _supervised_scenario,
        holders,
        config.supervisor or SupervisorConfig(),
        resubmit_crashed=config.fleet is not None,
    )
    #: last crash kind per scenario: a quarantine's terminal outcome.
    last_kind: dict[int, str] = {}
    with scheduler:
        for scenario in todo:
            scheduler.submit(
                scenario.index, (scenario, _trace_path(config, scenario))
            )
        while scheduler.outstanding:
            event = scheduler.next_event()
            scenario = by_index[event.task_id]
            if event.kind in ("worker-lost", "timeout"):
                last_kind[scenario.index] = event.kind
                if scheduler.resubmit_crashed:
                    # Intermediate: the scheduler re-leases (or follows
                    # up with "quarantined").  Nothing is journalled --
                    # the journal records outcomes, not weather.
                    if progress is not None:
                        progress(
                            f"{scenario.scenario_id} {event.kind} "
                            f"(crash {event.crashes}); re-leasing"
                        )
                    continue
            if event.kind == "result":
                outcome = event.result
            else:  # a terminal crash, or quarantined after several
                status, detail = _INFRASTRUCTURE_OUTCOMES[
                    last_kind[scenario.index]
                ]
                outcome = ScenarioOutcome(
                    scenario_id=scenario.scenario_id,
                    status=status,
                    detail=detail,
                )
            journal.record_outcome(
                scenario.scenario_id, float(scenario.index), outcome.as_dict()
            )
            outcomes[scenario.index] = outcome
            if progress is not None:
                progress(
                    f"[{len(outcomes)}/{config.count_total()}] "
                    f"{scenario.scenario_id} ({scenario.kind}, "
                    f"{scenario.algorithm}) -> {outcome.status}"
                )


def run_campaign(
    config: CampaignConfig,
    progress: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Generate, run, checkpoint, capture and report one campaign."""
    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    scenarios = campaign_scenarios(config)
    journal = SweepJournal(output_dir / JOURNAL_NAME)
    outcomes: dict[int, ScenarioOutcome] = {}
    resumed = 0
    todo: list[ChaosScenario] = []
    for scenario in scenarios:
        if config.resume:
            cached = journal.outcome_for(
                scenario.scenario_id, float(scenario.index)
            )
            if cached is not None:
                outcomes[scenario.index] = ScenarioOutcome.from_dict(cached)
                resumed += 1
                continue
        todo.append(scenario)
    if progress is not None and resumed:
        progress(f"resumed {resumed} scenario(s) from the journal")
    # The lock marks this process as the campaign journal's single
    # writer (the coordinator under a fleet, the parent otherwise);
    # a SIGKILLed run leaves a stale lock that a same-host restart
    # takes over after the dead-pid check.
    with journal.lock():
        pooled = (
            config.fleet is not None
            or config.supervisor is not None
            or (config.workers > 1 and len(todo) > 1)
        )
        if pooled and todo:
            _run_scheduled(config, todo, journal, outcomes, progress)
        else:
            _run_serial(config, todo, journal, outcomes, progress)

    failures: list[tuple[ChaosScenario, ScenarioOutcome, Path]] = []
    campaign_info = {
        "seed": config.seed,
        "count": config.count,
        "include_standalone": config.include_standalone,
        "inject_deadlock": config.inject_deadlock,
    }
    for scenario in scenarios:
        outcome = outcomes[scenario.index]
        if not outcome.failed:
            continue
        bundle = write_bundle(
            output_dir / "bundles",
            scenario,
            outcome,
            trace_path=_trace_path(config, scenario),
            campaign=campaign_info,
        )
        # Crashes and supervised timeouts have nothing to shrink: the
        # scenario never produced a simulation-derived failure to
        # preserve while minimizing.
        if config.shrink_failures and outcome.status not in (
            "crash",
            "timeout",
        ):
            if progress is not None:
                progress(f"shrinking {scenario.scenario_id} ...")
            minimal, steps = shrink_scenario(
                scenario, target_status=outcome.status
            )
            write_minimal(bundle.parent, minimal, steps, outcome.status)
        failures.append((scenario, outcome, bundle))
        if progress is not None:
            progress(
                f"captured {scenario.scenario_id} ({outcome.status}) -> "
                f"{bundle}"
            )
    manifest_path = _write_manifest(
        output_dir, config, scenarios, outcomes, failures
    )
    return CampaignResult(
        scenarios=scenarios,
        outcomes=outcomes,
        failures=failures,
        manifest_path=manifest_path,
        resumed=resumed,
    )


def _write_manifest(
    output_dir: Path,
    config: CampaignConfig,
    scenarios: list[ChaosScenario],
    outcomes: dict[int, ScenarioOutcome],
    failures: list[tuple[ChaosScenario, ScenarioOutcome, Path]],
) -> Path:
    """The campaign's deterministic summary (paths relative to it)."""
    bundle_by_index = {
        scenario.index: bundle for scenario, _, bundle in failures
    }
    entries = []
    for scenario in scenarios:
        outcome = outcomes[scenario.index]
        bundle = bundle_by_index.get(scenario.index)
        entries.append({
            "index": scenario.index,
            "scenario_id": scenario.scenario_id,
            "scenario_digest": scenario.digest(),
            "kind": scenario.kind,
            "algorithm": scenario.algorithm,
            "status": outcome.status,
            "outcome_digest": outcome.digest(),
            "trace": (
                f"traces/{scenario.scenario_id}.jsonl"
                if config.traces
                else None
            ),
            "bundle": (
                str(bundle.relative_to(output_dir))
                if bundle is not None
                else None
            ),
        })
    totals: dict[str, int] = {}
    for outcome in outcomes.values():
        totals[outcome.status] = totals.get(outcome.status, 0) + 1
    manifest = {
        "kind": "chaos-campaign",
        "schema": CAMPAIGN_SCHEMA,
        "seed": config.seed,
        "count": config.count,
        "include_standalone": config.include_standalone,
        "inject_deadlock": config.inject_deadlock,
        "scenarios": entries,
        "totals": dict(sorted(totals.items())),
    }
    if config.supervisor is not None:
        # Config plus outcome-derived counts only -- never the
        # supervisor's live wall-clock stats, which would break the
        # byte-identical manifest contract.
        manifest["supervisor"] = {
            **config.supervisor.as_dict(),
            "timeouts": totals.get("timeout", 0),
            "worker_crashes": totals.get("crash", 0),
        }
    path = output_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
