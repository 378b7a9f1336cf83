"""Delta-debugging failing scenarios down to minimal reproducers.

A randomly generated failing scenario usually drags along fault
dimensions that have nothing to do with the failure (the deadlock came
from the stalled router, not the 0.3% flit-drop rate that happened to
ride the same draw).  :func:`shrink_scenario` greedily disables one
active fault dimension at a time, re-running the scenario after each
edit and keeping the edit only when the *same failure status*
persists; it then halves the scenario's duration (measure cycles or
trials) while the failure keeps reproducing.  The result is a minimal
reproducer -- strictly fewer active dimensions whenever any were
extraneous, and a shorter run -- stored as ``minimal.json`` next to
the failure's bundle.

Shrinking compares *status*, not outcome digests: disabling a
dimension changes the shared fault-RNG draw sequence, so metrics shift
even when the underlying bug is untouched.  The minimal scenario's own
replay is still digest-exact, like any scenario.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.chaos.runner import ScenarioOutcome, run_scenario
from repro.chaos.scenario import (
    ChaosScenario,
    active_fault_dimensions,
    disable_dimension,
)

MINIMAL_SCHEMA = 1

#: duration floors: don't shrink below something humanly debuggable.
MIN_MEASURE_CYCLES = 200
MIN_TRIALS = 10


def _halve_duration(scenario: ChaosScenario) -> ChaosScenario | None:
    """The next duration-halving candidate, or None at the floor."""
    if scenario.kind == "timing":
        half = scenario.measure_cycles // 2
        if half < MIN_MEASURE_CYCLES:
            return None
        return replace(
            scenario,
            measure_cycles=half,
            warmup_cycles=scenario.warmup_cycles // 2,
        )
    half = scenario.trials // 2
    if half < MIN_TRIALS:
        return None
    return replace(scenario, trials=half)


def shrink_scenario(
    scenario: ChaosScenario,
    target_status: str | None = None,
    run: Callable[[ChaosScenario], ScenarioOutcome] = run_scenario,
    progress: Callable[[str], None] | None = None,
) -> tuple[ChaosScenario, list[dict]]:
    """Minimize a failing scenario; returns (minimal, attempt log).

    *target_status* is the failure to preserve; when omitted the
    scenario is run once to establish it (and must fail).  Every
    attempted edit lands in the log -- kept or rejected -- so the
    ``minimal.json`` record shows *why* the surviving dimensions
    survived.
    """
    if target_status is None:
        baseline = run(scenario)
        target_status = baseline.status
    if target_status == "ok":
        raise ValueError(
            f"{scenario.scenario_id} does not fail; nothing to shrink"
        )
    current = scenario
    steps: list[dict] = []

    def attempt(candidate: ChaosScenario, action: str) -> bool:
        outcome = run(candidate)
        kept = outcome.status == target_status
        steps.append({
            "action": action,
            "status": outcome.status,
            "kept": kept,
        })
        if progress is not None:
            verdict = "kept" if kept else "rejected"
            progress(f"  {action}: {outcome.status} -> {verdict}")
        return kept

    # Pass 1: drop extraneous fault dimensions until a fixed point.
    # Greedy restarts after every success because disabling one
    # dimension can change whether another is load-bearing.
    changed = True
    while changed:
        changed = False
        for name in active_fault_dimensions(current):
            candidate = disable_dimension(current, name)
            if attempt(candidate, f"disable {name}"):
                current = candidate
                changed = True
                break
    # Pass 2: halve the duration while the failure keeps reproducing.
    while (candidate := _halve_duration(current)) is not None:
        label = (
            f"halve measure_cycles to {candidate.measure_cycles}"
            if candidate.kind == "timing"
            else f"halve trials to {candidate.trials}"
        )
        if not attempt(candidate, label):
            break
        current = candidate
    return current, steps


def write_minimal(
    bundle_dir: str | Path,
    minimal: ChaosScenario,
    steps: list[dict],
    target_status: str,
) -> Path:
    """Store the minimal reproducer next to its bundle.

    The file carries the full minimal scenario record
    (``ChaosScenario.from_dict(record["scenario"])`` rebuilds it) but no
    recorded outcome digest, so ``repro chaos replay`` refuses it:
    replay the ``bundle.json`` beside it instead.
    """
    record = {
        "kind": "chaos-minimal",
        "schema": MINIMAL_SCHEMA,
        "target_status": target_status,
        "scenario": minimal.as_dict(),
        "scenario_digest": minimal.digest(),
        "active_dimensions": list(active_fault_dimensions(minimal)),
        "steps": steps,
    }
    path = Path(bundle_dir) / "minimal.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
