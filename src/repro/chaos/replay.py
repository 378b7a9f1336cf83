"""Self-contained replay bundles for failing scenarios.

A bundle is one JSON file holding everything needed to re-execute a
failure bitwise identically and to eyeball it without re-executing
anything: the full scenario (config + all seeds), the recorded outcome
(status, detail, metrics, resilience counts, digest), the fault
schedule's content hash, and the tail of the scenario's telemetry
trace.  ``repro chaos replay <bundle>`` reconstructs the scenario,
re-runs it, and compares outcome digests -- a reproduction is exact or
it is not, there is no "close enough".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.chaos.runner import ScenarioOutcome, run_scenario
from repro.chaos.scenario import ChaosScenario, fault_schedule_digest

BUNDLE_SCHEMA = 1

#: trace lines embedded in the bundle (the full trace stays on disk
#: next to the campaign; the tail makes the bundle useful standalone).
TRACE_TAIL_LINES = 50


def write_bundle(
    bundles_dir: str | Path,
    scenario: ChaosScenario,
    outcome: ScenarioOutcome,
    trace_path: str | Path | None = None,
    campaign: dict | None = None,
) -> Path:
    """Capture one failure as ``<bundles_dir>/<scenario_id>/bundle.json``."""
    directory = Path(bundles_dir) / scenario.scenario_id
    directory.mkdir(parents=True, exist_ok=True)
    tail: list[str] = []
    if trace_path is not None and Path(trace_path).exists():
        lines = Path(trace_path).read_text(encoding="utf-8").splitlines()
        tail = [line for line in lines if line.strip()][-TRACE_TAIL_LINES:]
    record = {
        "kind": "chaos-bundle",
        "schema": BUNDLE_SCHEMA,
        "campaign": campaign or {},
        "scenario": scenario.as_dict(),
        "scenario_digest": scenario.digest(),
        "fault_digest": fault_schedule_digest(scenario),
        "outcome": outcome.as_dict(),
        "trace_tail": tail,
    }
    path = directory / "bundle.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(path: str | Path) -> dict:
    """Read and check one bundle file.

    Everything that makes a file no replayable bundle -- not a JSON
    object, the wrong kind or schema, a scenario or outcome that does
    not rebuild, an outcome whose recorded digest no longer matches --
    raises ``ValueError`` (or ``OSError`` for an unreadable path), so
    the CLI refuses every malformed bundle in one line.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(record, dict):
        raise ValueError(f"{path}: not a chaos replay bundle (not a JSON object)")
    if record.get("kind") != "chaos-bundle":
        raise ValueError(
            f"{path}: not a chaos replay bundle (kind {record.get('kind')!r})"
        )
    if record.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"{path}: bundle schema v{record.get('schema')} does not match "
            f"this reader (v{BUNDLE_SCHEMA})"
        )
    try:
        ChaosScenario.from_dict(record["scenario"])
        ScenarioOutcome.from_dict(record["outcome"])
    except (KeyError, TypeError) as error:
        raise ValueError(
            f"{path}: malformed bundle ({type(error).__name__}: {error})"
        ) from error
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
    return record


@dataclass(frozen=True)
class ReplayResult:
    """One replay attempt: the recorded failure vs the fresh run."""

    scenario: ChaosScenario
    original: ScenarioOutcome
    replayed: ScenarioOutcome

    @property
    def reproduced(self) -> bool:
        """Exact reproduction: identical outcome digests."""
        return self.replayed.digest() == self.original.digest()

    def describe(self) -> str:
        if self.reproduced:
            return (
                f"{self.scenario.scenario_id}: reproduced "
                f"({self.original.status}, digest "
                f"{self.original.digest()[:12]})"
            )
        lines = [f"{self.scenario.scenario_id}: NOT reproduced"]
        if self.replayed.status != self.original.status:
            lines.append(
                f"  status: recorded {self.original.status!r}, "
                f"replayed {self.replayed.status!r}"
            )
        if self.replayed.detail != self.original.detail:
            lines.append(
                f"  detail: recorded {self.original.detail!r}, "
                f"replayed {self.replayed.detail!r}"
            )
        lines.append(
            f"  digest: recorded {self.original.digest()[:12]}, "
            f"replayed {self.replayed.digest()[:12]}"
        )
        return "\n".join(lines)


def replay_bundle(
    bundle: str | Path | dict, trace_path: str | Path | None = None
) -> ReplayResult:
    """Re-execute a bundle's scenario and compare against its record.

    *bundle* is a bundle path (file or directory) or a record
    :func:`load_bundle` already returned.  The scenario is
    reconstructed entirely from the bundle -- nothing from the original
    campaign directory is consulted -- so a bundle copied to another
    machine replays the same.  The recorded outcome's digest is
    verified on load (a hand-edited bundle fails loudly rather than
    "reproducing" a fiction).
    """
    record = bundle if isinstance(bundle, dict) else load_bundle(bundle)
    scenario = ChaosScenario.from_dict(record["scenario"])
    original = ScenarioOutcome.from_dict(record["outcome"])
    replayed = run_scenario(scenario, trace_path)
    return ReplayResult(
        scenario=scenario, original=original, replayed=replayed
    )
