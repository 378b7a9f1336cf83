"""Command-line entry point: regenerate any figure or claim.

Usage::

    repro-experiments fig8
    repro-experiments fig10 --preset paper --output results/fig10.txt
    repro-experiments fig10 --telemetry-dir results/traces
    repro-experiments score --preset smoke --workers 2
    repro-experiments obs summarize results/traces/**/*.jsonl
    repro-experiments chaos run --seed 7 --count 20 --output-dir chaos-out
    repro-experiments serve fig10 --preset paper --invariants --port 7421
    repro-experiments serve chaos --output-dir out --port 7421
    repro-experiments work --connect cohost:7421

``score`` runs them all into ``results/`` and EXPERIMENTS.md's tables.

The ``obs`` subcommand delegates to :mod:`repro.obs.cli` (also
installed as ``repro-obs``) for inspecting the JSONL telemetry traces
that ``--telemetry-dir`` produces; ``chaos`` delegates to
:mod:`repro.chaos.cli` for randomized fault campaigns with
deterministic replay bundles (see docs/chaos.md); ``serve`` / ``work``
/ ``submit`` / ``status`` delegate to :mod:`repro.service.cli`, the
distributed sweep/chaos service (see docs/service.md).  ``serve`` and
``submit`` take a ``fig10``/``fig11`` line of this very command line
(or ``chaos`` + the flags of ``chaos run``) as their job and run it
through :func:`main` with the fleet as executor: every flag below
means there what it means here, except ``--workers``, which a fleet
ignores.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import claims, figure8, figure9, figure10, figure11
from repro.resilience import (
    InvariantConfig,
    SupervisorConfig,
    WatchdogConfig,
    parse_fault_spec,
)
from repro.sim.config import MODEL_REVISION
from repro.sim.sweep import SweepGuard

#: the seed of every experiment run from this command line
SEED = 42


def supervisor_from_flags(
    point_timeout: float | None, quarantine_after: int = 3
) -> SupervisorConfig:
    """The scheduler's knobs from ``--point-timeout``/``--quarantine-after``,
    for this front door and the chaos sub-CLI.

    ``--point-timeout`` arms both the hard per-point deadline and the
    heartbeat-staleness bound at the same value: a wedged point stops
    beating long before a healthy one would exhaust the deadline, and
    one number is all the CLI needs to expose.  Without it both stay
    off and only a dead worker is acted on.
    """
    if point_timeout is not None and point_timeout <= 0:
        raise SystemExit("--point-timeout must be positive")
    if quarantine_after < 1:
        raise SystemExit("--quarantine-after must be at least 1")
    return SupervisorConfig(
        point_timeout_s=point_timeout,
        heartbeat_stale_s=point_timeout,
        quarantine_after=quarantine_after,
    )


def _sweep_guard(args: argparse.Namespace) -> SweepGuard:
    """Every fig10/fig11 sweep option from the CLI flags."""
    if args.max_attempts < 1:
        raise SystemExit("--max-attempts must be at least 1")
    if args.resume and args.journal_dir is None:
        raise SystemExit("--resume requires --journal-dir")
    if args.watchdog_remediate and args.watchdog is None:
        raise SystemExit("--watchdog-remediate requires --watchdog")
    try:
        faults = parse_fault_spec(args.faults) if args.faults else None
    except ValueError as error:
        raise SystemExit(f"bad --faults spec: {error}") from error
    watchdog = None
    if args.watchdog is not None:
        try:
            watchdog = WatchdogConfig(
                window_cycles=args.watchdog, remediate=args.watchdog_remediate
            )
        except ValueError as error:
            raise SystemExit(f"bad --watchdog: {error}") from error
    return SweepGuard(
        faults=faults,
        invariants=InvariantConfig() if args.invariants else None,
        watchdog=watchdog,
        journal_path=args.journal_dir,
        resume=args.resume,
        max_attempts=args.max_attempts,
        # Every pooled sweep (--workers > 1, or a fleet) runs under the
        # scheduler, so --quarantine-after alone must take effect; the
        # serial executor ignores it.
        supervisor=supervisor_from_flags(
            args.point_timeout, args.quarantine_after
        ),
        fleet=args.fleet,
        telemetry_dir=args.telemetry_dir,
        workers=args.workers,
    )


def _standalone(args: argparse.Namespace) -> dict:
    """fig8/fig9 keyword arguments from the flags."""
    try:
        faults = parse_fault_spec(args.faults) if args.faults else None
    except ValueError as error:
        raise SystemExit(f"bad --faults spec: {error}") from error
    return {"trials": args.trials, "seed": SEED, "faults": faults,
            "backend": args.backend}


def _sweeps(args: argparse.Namespace, panels: tuple) -> dict:
    """fig10/fig11 keyword arguments from the flags."""
    return {"preset": args.preset, "panels": panels, "seed": SEED,
            "progress": progress_printer(args), "guard": _sweep_guard(args)}


def _run_fig10(args: argparse.Namespace):
    panels = tuple(p for p in figure10.PANELS
                   if (args.panel or "").lower() in p.name.lower())
    if not panels:
        raise SystemExit(f"no Figure 10 panel matches {args.panel!r}")
    return figure10.run_figure10(**_sweeps(args, panels))


def _run_fig11(args: argparse.Namespace):
    panels = tuple(p for p in figure11.PANELS
                   if not args.panel or args.panel.lower() == figure11.letter(p))
    if not panels:
        raise SystemExit("Figure 11 panels are a, b and c")
    return figure11.run_figure11(**_sweeps(args, panels))


#: verb -> (run from the flags, render the result's data)
_EXPERIMENTS = {
    "fig8": (lambda args: figure8.run_figure8(**_standalone(args)),
             figure8.format_figure8),
    "fig9": (lambda args: figure9.run_figure9(**_standalone(args)),
             figure9.format_figure9),
    "fig10": (_run_fig10, figure10.format_figure10),
    "fig11": (_run_fig11, figure11.format_figure11),
    "claims": (lambda args: claims.run_claims(args.preset, SEED),
               claims.format_claims),
}


def _run(name: str, args: argparse.Namespace):
    """One experiment's report (its data, then its scored claim rows)
    and the rows; the wall-clock line goes to stderr."""
    started = time.time()
    run, render = _EXPERIMENTS[name]
    result = run(args)
    scored = claims.score(name, result)
    print(f"[{name} regenerated in {time.time() - started:.1f}s]",
          file=sys.stderr, flush=True)
    return render(result) + "\n\n" + claims.render(scored), scored


def _score(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run every experiment; write results/ and EXPERIMENTS.md's tables."""
    if args.panel or args.output:
        parser.error("score runs every panel and writes fixed files; "
                     "drop --panel/--output")
    document = Path("EXPERIMENTS.md")
    spans = {"stamp": f"model revision {MODEL_REVISION} · preset "
                      f"{args.preset} · seed {SEED}"}
    try:
        text = document.read_text(encoding="utf-8")
        claims.rewrite_spans(text, dict.fromkeys([*spans, *_EXPERIMENTS], ""))
    except (OSError, ValueError) as error:
        parser.error(f"score rewrites EXPERIMENTS.md in the current "
                     f"directory: {error}")
    stamp = spans["stamp"] + "\n\n"
    board = []
    for name in _EXPERIMENTS:
        report, scored = _run(name, args)
        _write(Path("results", f"{name}.txt"), stamp + report)
        spans[name] = claims.markdown(scored)
        board += scored
    _write(Path("results", "scoreboard.txt"), stamp + claims.render(board))
    document.write_text(claims.rewrite_spans(text, spans), encoding="utf-8")
    return 0


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def progress_printer(args: argparse.Namespace):
    """The sweep/campaign ``progress`` callback (stderr lines), or
    ``None`` under ``--quiet``; shared with the chaos sub-CLI."""
    if args.quiet:
        return None
    return lambda message: print(message, file=sys.stderr, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures of 'A Comparative Study of Arbitration "
            "Algorithms for the Alpha 21364 Pipelined Router' (ASPLOS 2002)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["score"],
        help="which figure (or in-text claim set) to regenerate, or "
             "'score' for all of them into results/ and EXPERIMENTS.md",
    )
    parser.add_argument(
        "--preset",
        choices=("paper", "fast", "smoke"),
        default="fast",
        help="simulation length: paper=75k cycles per point, fast=12k, "
             "smoke=3k (default: fast)",
    )
    parser.add_argument(
        "--panel",
        default=None,
        help="restrict fig10 (substring match) or fig11 (a/b/c) to one panel",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1000,
        help="standalone-model trials per point for fig8/fig9 (default 1000)",
    )
    parser.add_argument(
        "--backend",
        choices=("object", "vectorized"),
        default="object",
        help="fig8/fig9 evaluation backend: 'object' is the per-trial "
             "reference path, 'vectorized' runs all trials as batched "
             "numpy kernels with bit-identical results (requires the "
             "kernels extra; see docs/kernels.md)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write the report here"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run fig10/fig11 sweep points in a pool of N worker "
             "processes, each a fresh interpreter that imports only what "
             "its points need (POSIX; default 1 = serial); per-point "
             "results are bitwise identical to a serial run, and with "
             "--journal-dir the journal doubles as the work queue so "
             "--resume works the same as serially",
    )
    parser.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        help="write a JSONL telemetry trace per fig10/fig11 BNF point "
             "into this directory (inspect with 'repro-experiments obs')",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "fault injection, runtime checking and checkpointed sweeps; "
        "see docs/resilience.md",
    )
    resilience.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject faults into every sweep point (fig10/fig11) or "
             "into every matching trial (fig8/fig9: grant suppression "
             "and trial-indexed stalls); comma-separated key=value "
             "spec, e.g. 'drop=1e-3,corrupt=5e-4,seed=7' "
             "(keys: drop, corrupt, suppress, misroute, stall-node, "
             "stall-start, stall-cycles, seed, max-retries, backoff)",
    )
    resilience.add_argument(
        "--invariants",
        action="store_true",
        help="run the runtime invariant checker (packet conservation, "
             "duplicate ids, buffer credits, age bound) in every point; "
             "any violation fails the point",
    )
    resilience.add_argument(
        "--watchdog",
        type=float,
        default=None,
        metavar="CYCLES",
        help="attach a progress watchdog: no delivery for CYCLES cycles "
             "with work outstanding records a structured stall diagnostic",
    )
    resilience.add_argument(
        "--watchdog-remediate",
        action="store_true",
        help="give a stalled simulation one recovery kick (re-arm every "
             "router's arbitration) before declaring deadlock; outcomes "
             "are recorded as remediated/deadlocked (requires --watchdog)",
    )
    resilience.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        help="checkpoint every completed sweep point into per-panel "
             "JSONL journals under this directory",
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help="skip sweep points already completed in the journal "
             "(requires --journal-dir)",
    )
    resilience.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="tries per sweep point before giving up; retries bump the "
             "simulation and fault seeds (default 1)",
    )
    resilience.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --workers > 1 or on a fleet, also reap any worker "
             "whose point exceeds SECONDS of wall clock or whose in-loop "
             "heartbeat goes stale for SECONDS, journal the reap, and "
             "retry the point on a fresh worker; without it only a dead "
             "worker is replaced (see docs/resilience.md)",
    )
    resilience.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        metavar="K",
        help="with --workers > 1 or on a fleet, quarantine a point after "
             "K crashes (worker deaths or reaps) instead of retrying it "
             "forever (default 3)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    parser.set_defaults(fleet=None)  # not a flag: see main()
    return parser


def main(argv: list[str] | None = None, fleet=None) -> int:
    """Run one command line.  *fleet* is how ``serve`` runs a fig10/fig11
    line it was handed: the live ``ServiceServer`` whose remote workers
    take the sweep points (:mod:`repro.service.jobs`)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        # Telemetry-trace inspection lives in its own sub-CLI with its
        # own argument grammar; hand the rest of the line over.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "chaos":
        # Chaos campaigns (run/replay/shrink/report) likewise.
        from repro.chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] in ("serve", "work", "submit", "status"):
        # The distributed sweep/chaos service (docs/service.md); the
        # verb itself is the service CLI's subcommand, so pass it on.
        from repro.service.cli import main as service_main

        return service_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fleet = fleet
    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.experiment == "score":
        return _score(args, parser)
    report, _ = _run(args.experiment, args)
    print(report)
    if args.output is not None:
        _write(args.output, report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
