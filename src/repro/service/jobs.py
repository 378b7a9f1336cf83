"""Job descriptions the service runs: figure sweeps and chaos campaigns.

A *job* is a plain JSON dict -- buildable from ``serve``'s own flags
or shipped over the wire by ``submit`` -- that :func:`run_job` turns
into the exact same calls the normal CLI makes, with the live
:class:`~repro.service.server.ServiceServer` threaded in as the
``fleet`` backend.  Everything else (journals, resume, manifests,
bundle capture) is untouched, which is what keeps fleet artifacts
byte-comparable to single-host ones.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

from repro.resilience.supervisor import SupervisorConfig
from repro.service.server import ServiceServer

__all__ = ["JOB_KINDS", "job_from_args", "run_job"]

JOB_KINDS = ("fig10", "fig11", "chaos")


def job_from_args(args) -> dict:
    """The JSON job dict for ``serve``/``submit``'s parsed flags."""
    job = {
        "kind": args.job,
        "resume": bool(args.resume),
        "point_timeout": args.point_timeout,
        "quarantine_after": args.quarantine_after,
    }
    if args.job == "chaos":
        if args.output_dir is None:
            raise SystemExit("chaos jobs require --output-dir")
        job.update(
            output_dir=str(args.output_dir),
            seed=args.seed,
            count=args.count,
            preset=args.preset,
            inject_deadlock=bool(args.inject_deadlock),
            include_standalone=not args.no_standalone,
            traces=not args.no_traces,
        )
    else:
        job.update(
            preset=args.preset,
            panel=args.panel,
            telemetry_dir=(
                str(args.telemetry_dir)
                if args.telemetry_dir is not None
                else None
            ),
            journal_dir=(
                str(args.journal_dir)
                if args.journal_dir is not None
                else None
            ),
            max_attempts=args.max_attempts,
            output=str(args.output) if args.output is not None else None,
        )
        if job["resume"] and job["journal_dir"] is None:
            raise SystemExit("--resume requires --journal-dir")
    return job


def _supervisor_for(job: dict) -> SupervisorConfig:
    """The fleet scheduler's knobs; no ``point_timeout`` leaves the
    deadline and staleness bound off, but quarantine still applies."""
    timeout = job.get("point_timeout")
    if timeout is not None and timeout <= 0:
        raise SystemExit("--point-timeout must be positive")
    return SupervisorConfig(
        point_timeout_s=timeout,
        heartbeat_stale_s=timeout,
        quarantine_after=int(job.get("quarantine_after") or 3),
    )


def run_job(
    server: ServiceServer,
    job: dict,
    progress: Callable[[str], None] | None = None,
) -> int:
    """Run one job over the fleet; returns the job's exit code."""
    kind = job.get("kind")
    if kind in ("fig10", "fig11"):
        return _run_figure_job(server, job, progress)
    if kind == "chaos":
        return _run_chaos_job(server, job, progress)
    raise SystemExit(f"unknown job kind: {kind!r}")


def _run_figure_job(
    server: ServiceServer,
    job: dict,
    progress: Callable[[str], None] | None,
) -> int:
    from repro.experiments import figure10, figure11
    from repro.sim.sweep import SweepGuard

    module = figure10 if job["kind"] == "fig10" else figure11
    panels = module.PANELS
    if job.get("panel"):
        wanted = str(job["panel"]).lower()
        panels = tuple(
            panel
            for panel in panels
            if wanted in panel.name.lower()
            or wanted == getattr(panel, "key", "").lower()
        )
        if not panels:
            raise SystemExit(f"no {job['kind']} panel matches {job['panel']!r}")
    guard = SweepGuard(
        journal_path=job.get("journal_dir"),
        resume=bool(job.get("resume")),
        max_attempts=int(job.get("max_attempts") or 1),
        supervisor=_supervisor_for(job),
        fleet=server,
    )
    runner = module.run_figure10 if job["kind"] == "fig10" else module.run_figure11
    formatter = (
        module.format_figure10 if job["kind"] == "fig10" else module.format_figure11
    )
    result = runner(
        preset=job.get("preset", "fast"),
        panels=panels,
        progress=progress,
        telemetry_dir=job.get("telemetry_dir"),
        guard=guard,
    )
    text = formatter(result)
    print(text)
    if job.get("output"):
        path = Path(job["output"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
    return 0


def _run_chaos_job(
    server: ServiceServer,
    job: dict,
    progress: Callable[[str], None] | None,
) -> int:
    from repro.chaos.campaign import CampaignConfig, run_campaign
    from repro.chaos.scenario import ScenarioSpace

    config = CampaignConfig(
        output_dir=Path(job["output_dir"]),
        seed=int(job.get("seed") or 0),
        count=int(job.get("count") if job.get("count") is not None else 20),
        space=(
            ScenarioSpace.smoke()
            if job.get("preset") == "smoke"
            else ScenarioSpace()
        ),
        include_standalone=bool(job.get("include_standalone", True)),
        inject_deadlock=bool(job.get("inject_deadlock")),
        resume=bool(job.get("resume")),
        traces=bool(job.get("traces", True)),
        # The campaign manifest gains its supervisor section only with
        # an explicit config; without --point-timeout it must stay
        # byte-identical to a plain single-host run's.
        supervisor=(
            _supervisor_for(job)
            if job.get("point_timeout") is not None
            else None
        ),
        fleet=server,
    )
    result = run_campaign(config, progress=progress)
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
