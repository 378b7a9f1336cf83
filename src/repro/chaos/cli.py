"""The ``repro chaos`` sub-CLI: run / replay / shrink / report.

Usage::

    repro-experiments chaos run --seed 7 --count 20 --output-dir chaos-out
    repro-experiments chaos run --count 8 --inject-deadlock --preset smoke \\
        --output-dir ci-chaos
    repro-experiments chaos replay ci-chaos/bundles/injected-deadlock/bundle.json
    repro-experiments chaos shrink ci-chaos/bundles/injected-deadlock/bundle.json
    repro-experiments chaos report ci-chaos

Exit codes: ``run`` fails (1) only on *unexplained* failures -- a
scenario whose harness crashed.  Invariant violations, deadlocks and
drain failures are the campaign's product: they exit 0 and leave
replay bundles behind.  ``replay`` exits 0 iff the recorded outcome
was reproduced digest-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.chaos.campaign import (
    CampaignConfig,
    MANIFEST_NAME,
    run_campaign,
)
from repro.chaos.replay import load_bundle, replay_bundle
from repro.chaos.scenario import (
    ChaosScenario,
    ScenarioSpace,
    active_fault_dimensions,
)
from repro.chaos.shrink import shrink_scenario, write_minimal
from repro.experiments.cli import progress_printer, supervisor_from_flags


def _space(preset: str) -> ScenarioSpace:
    return ScenarioSpace.smoke() if preset == "smoke" else ScenarioSpace()


def _cmd_run(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise SystemExit("--count must be at least 1")
    config = CampaignConfig(
        output_dir=args.output_dir,
        seed=args.seed,
        count=args.count,
        space=_space(args.preset),
        include_standalone=not args.no_standalone,
        inject_deadlock=args.inject_deadlock,
        workers=args.workers,
        resume=args.resume,
        shrink_failures=args.shrink,
        traces=not args.no_traces,
        # The manifest gains its supervisor section only with an explicit
        # config: without --point-timeout it stays byte-identical to a
        # plain run's, local or fleet.
        supervisor=(
            supervisor_from_flags(args.point_timeout)
            if args.point_timeout is not None
            else None
        ),
        fleet=args.fleet,
    )
    result = run_campaign(config, progress=progress_printer(args))
    totals = ", ".join(
        f"{status}={count}" for status, count in result.status_totals().items()
    )
    print(
        f"campaign seed={config.seed}: {len(result.scenarios)} scenario(s), "
        f"{totals or 'nothing ran'}"
    )
    for scenario, outcome, bundle in result.failures:
        print(f"  {scenario.scenario_id}: {outcome.status} -> {bundle}")
    print(f"manifest: {result.manifest_path}")
    crashed = result.crashed
    if crashed:
        print(
            f"{len(crashed)} scenario(s) crashed the harness "
            "(unexplained failures)",
            file=sys.stderr,
        )
        return 1
    return 0


def _bundle(args: argparse.Namespace) -> dict:
    """The bundle record *args* names; a missing file or one that is no
    replay bundle (a ``minimal.json`` included) is a one-line refusal."""
    try:
        return load_bundle(args.bundle)
    except (OSError, ValueError) as error:
        raise SystemExit(f"chaos {args.command}: {error}") from error


def _cmd_replay(args: argparse.Namespace) -> int:
    record = _bundle(args)  # refused before anything runs
    result = replay_bundle(record, trace_path=args.trace)
    print(result.describe())
    return 0 if result.reproduced else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    bundle_path = Path(args.bundle)
    record = _bundle(args)
    scenario = ChaosScenario.from_dict(record["scenario"])
    target = record["outcome"]["status"]
    progress = progress_printer(args)
    if progress is not None:
        progress(f"shrinking {scenario.scenario_id} (target: {target})")
    minimal, steps = shrink_scenario(
        scenario, target_status=target, progress=progress
    )
    directory = (
        bundle_path if bundle_path.is_dir() else bundle_path.parent
    )
    path = write_minimal(directory, minimal, steps, target)
    before = active_fault_dimensions(scenario)
    after = active_fault_dimensions(minimal)
    print(
        f"{scenario.scenario_id}: {len(before)} active dimension(s) "
        f"{list(before)} -> {len(after)} {list(after)}"
    )
    print(f"minimal reproducer: {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    manifest_path = Path(args.output_dir) / MANIFEST_NAME
    if not manifest_path.exists():
        print(f"no {MANIFEST_NAME} under {args.output_dir}", file=sys.stderr)
        return 1
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    print(
        f"chaos campaign seed={manifest['seed']} "
        f"({len(manifest['scenarios'])} scenario(s))"
    )
    width = max(
        (len(e["scenario_id"]) for e in manifest["scenarios"]), default=10
    )
    for entry in manifest["scenarios"]:
        marker = " " if entry["status"] == "ok" else "!"
        print(
            f"  {marker} {entry['scenario_id']:<{width}}  "
            f"{entry['kind']:<10} {entry['algorithm']:<12} "
            f"{entry['status']}"
        )
    totals = ", ".join(
        f"{status}={count}" for status, count in manifest["totals"].items()
    )
    print(f"totals: {totals}")
    failures = [e for e in manifest["scenarios"] if e["status"] != "ok"]
    for entry in failures:
        if entry["bundle"]:
            print(f"  bundle: {Path(args.output_dir) / entry['bundle']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description=(
            "Randomized fault campaigns with deterministic replay bundles "
            "and automatic failure shrinking (see docs/chaos.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="generate and run a seeded campaign")
    run_p.add_argument("--seed", type=int, default=0, help="campaign seed")
    run_p.add_argument(
        "--count", type=int, default=20, help="scenarios to generate"
    )
    run_p.add_argument(
        "--output-dir",
        type=Path,
        required=True,
        help="campaign directory (journal, traces/, bundles/, manifest)",
    )
    run_p.add_argument(
        "--preset",
        choices=("fast", "smoke"),
        default="fast",
        help="scenario sizing: fast=default tiny scenarios, smoke=CI-tiny",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run scenarios on N supervised worker processes, each a "
             "fresh interpreter (POSIX); "
             "per-scenario outcomes are bitwise identical to a serial run, "
             "and a worker that dies costs only its own scenario a "
             "'crash' outcome",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="skip scenarios already completed in the campaign journal",
    )
    run_p.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="a worker wedged past SECONDS of wall clock (or heartbeat "
             "silence) is reaped and its scenario recorded as a 'timeout' "
             "outcome instead of hanging the campaign; also adds the "
             "manifest's supervisor section",
    )
    run_p.add_argument(
        "--inject-deadlock",
        action="store_true",
        help="append the guaranteed-deadlock scenario "
             "('injected-deadlock'), proving the capture path end to end",
    )
    run_p.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug every captured failure to a minimal reproducer",
    )
    run_p.add_argument(
        "--no-standalone",
        action="store_true",
        help="generate timing-model scenarios only",
    )
    run_p.add_argument(
        "--no-traces",
        action="store_true",
        help="skip per-scenario telemetry traces (bundles lose their "
             "trace tails)",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    run_p.set_defaults(func=_cmd_run)

    replay_p = sub.add_parser(
        "replay", help="re-execute a bundle and verify exact reproduction"
    )
    replay_p.add_argument(
        "bundle", help="path to a bundle.json (or its directory)"
    )
    replay_p.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="also write the replay's telemetry trace here",
    )
    replay_p.set_defaults(func=_cmd_replay)

    shrink_p = sub.add_parser(
        "shrink", help="minimize a bundle's scenario to minimal.json"
    )
    shrink_p.add_argument(
        "bundle", help="path to a bundle.json (or its directory)"
    )
    shrink_p.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    shrink_p.set_defaults(func=_cmd_shrink)

    report_p = sub.add_parser(
        "report", help="summarize a campaign directory's manifest"
    )
    report_p.add_argument(
        "output_dir", help="campaign directory holding campaign_manifest.json"
    )
    report_p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None, fleet=None) -> int:
    """Run one chaos command line.  *fleet* is how ``serve`` runs a
    ``run`` line it was handed: the live ``ServiceServer`` whose remote
    workers take the scenarios (:mod:`repro.service.jobs`)."""
    args = build_parser().parse_args(argv)
    args.fleet = fleet
    if getattr(args, "workers", 1) < 1:
        raise SystemExit("--workers must be at least 1")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
