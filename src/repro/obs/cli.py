"""``repro obs`` -- inspect traces and perf records from the CLI.

Trace subcommands (``summarize`` / ``diff`` take ``--json`` for
machine-readable output)::

    repro-obs summarize trace.jsonl          # manifest + counters + ports
    repro-obs diff base.jsonl contender.jsonl
    repro-obs ports trace.jsonl --top 10     # busiest (node, port) pairs

Bench-record subcommands (see :mod:`repro.obs.perf` and the "Bench
records" section of docs/observability.md)::

    repro-obs perf report                    # render ./BENCH_*.json
    repro-obs perf diff BENCH_a.json BENCH_b.json

Also reachable as ``repro-experiments obs ...`` and
``python -m repro.obs ...``; the traces come from any run with a
:class:`repro.obs.sink.JsonlSink` attached -- e.g.
``sweep_algorithm(..., telemetry_dir=...)`` or
``repro-experiments fig10 --telemetry-dir runs/`` -- and the perf
records from ``PYTHONPATH=src python -m pytest benchmarks/ -q -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.report import format_table
from repro.obs import perf
from repro.obs.analysis import (
    TraceSummary,
    diff_summaries,
    output_port_name,
    summarize_trace,
)


def _render_summary(summary: TraceSummary) -> str:
    parts = [f"== trace: {summary.path} =="]
    if summary.truncated:
        parts.append(
            "(truncated: torn final line dropped -- writer killed mid-record)"
        )
    manifest = summary.manifest
    if manifest is not None:
        rows = [
            ("schema", f"v{manifest.schema_version}"),
            ("algorithm", manifest.algorithm),
            ("seed", manifest.seed),
            ("package", f"repro {manifest.package_version}"),
            ("python", manifest.python),
            ("created", manifest.created_at),
        ]
        for key in ("warmup_cycles", "measure_cycles"):
            if key in manifest.config:
                rows.append((key, manifest.config[key]))
        traffic = manifest.config.get("traffic", {})
        if isinstance(traffic, dict) and "injection_rate" in traffic:
            rows.append(("injection_rate", traffic["injection_rate"]))
        parts.append(format_table(("field", "value"), rows, title="Run manifest"))
    else:
        parts.append("(no manifest record -- truncated trace?)")

    arbitration = summary.arbitration_counts()
    if arbitration:
        rows = []
        for algorithm, counts in sorted(arbitration.items()):
            nominations = counts["nominations"]
            rate = counts["grants"] / nominations if nominations else 0.0
            rows.append((
                algorithm,
                nominations,
                counts["grants"],
                counts["conflicts"],
                f"{rate:.1%}",
            ))
        parts.append(format_table(
            ("algorithm", "nominations", "grants", "conflicts", "grant rate"),
            rows,
            title="Arbitration counters",
        ))

    scalars = [
        (name, int(summary.scalar(name)))
        for name in (
            "sim_injections_total",
            "sim_deliveries_total",
            "router_speculation_drops_total",
            "router_starvation_engagements_total",
        )
        if summary.scalar(name)
    ]
    latency = summary.mean_latency_cycles()
    if latency is not None:
        scalars.append(("mean delivery latency (cycles)", f"{latency:.1f}"))
    if summary.wall_time_s is not None:
        scalars.append(("wall time (s)", f"{summary.wall_time_s:.2f}"))
    if scalars:
        parts.append(format_table(("metric", "value"), scalars, title="Totals"))

    resilience = summary.resilience_counts()
    if resilience:
        parts.append(format_table(
            ("metric", "count"),
            [(name.replace("_", " "), count) for name, count in resilience.items()],
            title="Resilience (fault injection / runtime checks)",
        ))

    if summary.watchdog_diagnostics:
        diag = summary.watchdog_diagnostics[-1]
        rows = [
            ("cycle", f"{diag.get('time', 0.0):.1f}"),
            ("window (cycles)", f"{diag.get('window_cycles', 0.0):.0f}"),
            ("delivered so far", diag.get("delivered_total", 0)),
            ("outstanding", diag.get("outstanding", 0)),
            ("buffered / pending / in transit",
             f"{diag.get('buffered', 0)} / {diag.get('pending', 0)} / "
             f"{diag.get('in_transit', 0)}"),
        ]
        for entry in diag.get("routers", ())[:5]:
            ports = ", ".join(
                f"{port}={count}" for port, count in entry.get("ports", {}).items()
            )
            draining = " (draining)" if entry.get("draining") else ""
            rows.append((f"node {entry.get('node')}{draining}", ports))
        parts.append(format_table(
            ("field", "value"),
            rows,
            title=f"Watchdog stall snapshot (last of "
                  f"{summary.event_counts.get('watchdog', 0)} fires)",
        ))

    by_output = summary.utilization_by_output()
    if by_output:
        parts.append(format_table(
            ("output port", "mean util", "max util"),
            [
                (output_port_name(output), f"{mean:.1%}", f"{peak:.1%}")
                for output, (mean, peak) in by_output.items()
            ],
            title="Per-output-port utilization (across nodes)",
        ))

    if summary.event_counts:
        parts.append(format_table(
            ("event kind", "records"),
            sorted(summary.event_counts.items()),
            title="Trace events",
        ))

    return "\n\n".join(parts)


def _cmd_summarize(args: argparse.Namespace) -> str:
    summaries = [summarize_trace(path) for path in args.traces]
    if args.json:
        return json.dumps([s.as_dict() for s in summaries], indent=2)
    return "\n\n\n".join(_render_summary(s) for s in summaries)


def _cmd_diff(args: argparse.Namespace) -> str:
    summary_a = summarize_trace(args.trace_a)
    summary_b = summarize_trace(args.trace_b)
    deltas = [
        delta for delta in diff_summaries(summary_a, summary_b)
        if delta.a != 0 or delta.b != 0
    ]
    if args.json:
        return json.dumps(
            {
                "a": str(summary_a.path),
                "b": str(summary_b.path),
                "deltas": [delta.as_dict() for delta in deltas],
            },
            indent=2,
        )
    rows = [
        (delta.name, f"{delta.a:g}", f"{delta.b:g}", delta.relative_text)
        for delta in deltas
    ]
    title = (
        f"A = {summary_a.path} ({summary_a.algorithm})\n"
        f"B = {summary_b.path} ({summary_b.algorithm})"
    )
    return format_table(("metric", "A", "B", "B vs A"), rows, title=title)


def _cmd_ports(args: argparse.Namespace) -> str:
    summary = summarize_trace(args.trace)
    per_port = summary.port_utilization()
    if not per_port:
        return "(no per-port data: trace has no counters record or grants)"
    busiest = sorted(per_port.items(), key=lambda kv: -kv[1])
    if args.top > 0:
        busiest = busiest[: args.top]
    busy = summary.port_busy_cycles()
    rows = [
        (
            node,
            output_port_name(output),
            f"{busy.get((node, output), 0.0):.0f}",
            f"{util:.1%}",
        )
        for (node, output), util in busiest
    ]
    return format_table(
        ("node", "output", "busy cycles", "utilization"),
        rows,
        title=f"Busiest output ports of {summary.path}",
    )


# -- bench-record subcommands ----------------------------------------------


def _cmd_perf_report(args: argparse.Namespace) -> str:
    records = [
        perf.AreaRecord.load(path)
        for path in sorted(Path(args.root).glob(perf.bench_filename("*")))
    ]
    if args.area:
        records = [r for r in records if r.area in args.area]
    if args.json:
        return json.dumps([r.to_dict() for r in records], indent=2)
    if not records:
        return f"(no BENCH_*.json under {args.root} -- run the benchmarks first)"
    parts = [format_table(
        ("area", "created", "sha", "preset", "run", "benches", "wall (s)"),
        [
            (
                record.area,
                record.created_at[:19],
                (record.git_sha or "-")[:9],
                record.preset,
                record.run_id,
                len(record.benches),
                f"{sum(bench.wall_s for bench in record.benches):.2f}",
            )
            for record in records
        ],
        title=f"Bench records ({args.root})",
    )]
    for record in records:
        bench_rows = []
        for bench in record.benches:
            metrics = ", ".join(
                f"{m.name}={m.value:g}{(' ' + m.unit) if m.unit else ''}"
                for m in bench.metrics
            )
            phases = ", ".join(
                f"{p['name']}={p['seconds']:.3f}s" for p in bench.phases
            )
            bench_rows.append(
                (bench.name, f"{bench.wall_s:.3f}", metrics, phases or "-")
            )
        parts.append(format_table(
            ("bench", "wall (s)", "metrics", "phases"),
            bench_rows,
            title=f"{record.area} (run {record.run_id}, "
                  f"preset={record.preset})",
        ))
    return "\n\n".join(parts)


def _cmd_perf_diff(args: argparse.Namespace) -> str:
    record_a = perf.AreaRecord.load(args.record_a)
    record_b = perf.AreaRecord.load(args.record_b)
    deltas = perf.diff_area_records(record_a, record_b)
    if args.json:
        return json.dumps(
            {
                "a": {"path": str(args.record_a), "run_id": record_a.run_id},
                "b": {"path": str(args.record_b), "run_id": record_b.run_id},
                "deltas": [delta.as_dict() for delta in deltas],
            },
            indent=2,
        )
    rows = [
        (delta.name, f"{delta.a:g}", f"{delta.b:g}", delta.relative_text)
        for delta in deltas
    ]
    title = (
        f"A = {args.record_a} (run {record_a.run_id}, {record_a.preset})\n"
        f"B = {args.record_b} (run {record_b.run_id}, {record_b.preset})"
    )
    return format_table(("metric", "A", "B", "B vs A"), rows, title=title)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Summarize, diff and drill into repro telemetry traces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", type=Path, default=None, help="also write the report here"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize",
        parents=[common],
        help="one-screen digest of one or more traces",
    )
    summarize.add_argument("traces", nargs="+", type=Path)
    summarize.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    summarize.set_defaults(func=_cmd_summarize)

    diff = commands.add_parser(
        "diff", parents=[common], help="compare two traces' aggregates"
    )
    diff.add_argument("trace_a", type=Path)
    diff.add_argument("trace_b", type=Path)
    diff.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    diff.set_defaults(func=_cmd_diff)

    ports = commands.add_parser(
        "ports", parents=[common], help="per-port utilization table for one trace"
    )
    ports.add_argument("trace", type=Path)
    ports.add_argument(
        "--top", type=int, default=20,
        help="show the N busiest (node, port) pairs; 0 = all (default 20)",
    )
    ports.set_defaults(func=_cmd_ports)

    perf_cmd = commands.add_parser(
        "perf", help="benchmark perf records: report, diff"
    )
    perf_commands = perf_cmd.add_subparsers(dest="perf_command", required=True)

    report = perf_commands.add_parser(
        "report", parents=[common],
        help="render the BENCH_<area>.json records under --root",
    )
    report.add_argument(
        "--root", type=Path, default=Path("."),
        help="repo root holding BENCH_*.json (default: .)",
    )
    report.add_argument(
        "--area", action="append",
        help="restrict to an area, e.g. figures (repeatable)",
    )
    report.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    report.set_defaults(func=_cmd_perf_report)

    perf_diff = perf_commands.add_parser(
        "diff", parents=[common],
        help="compare two BENCH_<area>.json records metric by metric",
    )
    perf_diff.add_argument("record_a", type=Path)
    perf_diff.add_argument("record_b", type=Path)
    perf_diff.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    perf_diff.set_defaults(func=_cmd_perf_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        print(text)
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(text + "\n")
    except (OSError, ValueError) as error:
        print(f"repro obs: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
