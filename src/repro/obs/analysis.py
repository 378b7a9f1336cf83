"""Reading and summarizing JSONL telemetry traces.

This is the pure-computation half of the ``repro obs`` CLI: it streams
a trace once, keeps only aggregates (a trace with millions of events
summarizes in constant memory), and answers the questions the paper's
arguments turn on -- how many nominations did each algorithm convert
into grants (Figure 2's collisions), how evenly loaded were the output
ports, where did the wall time go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.events import OBS_SCHEMA_VERSION
from repro.obs.manifest import RunManifest
from repro.obs.sink import read_jsonl


@dataclass
class TraceSummary:
    """Constant-size aggregate of one JSONL trace."""

    path: str
    manifest: RunManifest | None = None
    counters: dict = field(default_factory=dict)
    event_counts: dict[str, int] = field(default_factory=dict)
    wall_time_s: float | None = None
    #: the writer was killed mid-record: the torn final line was dropped
    #: (see :func:`~repro.obs.sink.read_jsonl`).
    truncated: bool = False
    #: structured stall snapshots from ``watchdog`` events (capped; the
    #: event count in :attr:`event_counts` is still exact).
    watchdog_diagnostics: list[dict] = field(default_factory=list)
    #: (node, output) -> busy cycles, accumulated from grant events as
    #: a fallback when the trace lacks a counters record (truncated
    #: runs); the counters record wins when present.
    _event_port_busy: dict[tuple[int, int], float] = field(default_factory=dict)

    # -- derived views -----------------------------------------------------

    @property
    def algorithm(self) -> str:
        return self.manifest.algorithm if self.manifest else "unknown"

    def arbitration_counts(self) -> dict[str, dict[str, int]]:
        """algorithm -> {nominations, grants, conflicts}."""
        out: dict[str, dict[str, int]] = {}
        for metric, key in (
            ("arb_nominations_total", "nominations"),
            ("arb_grants_total", "grants"),
            ("arb_conflicts_total", "conflicts"),
        ):
            for labels, value in self._series(metric):
                algorithm = labels[0] if labels else "unknown"
                out.setdefault(
                    algorithm, {"nominations": 0, "grants": 0, "conflicts": 0}
                )[key] = int(value)
        return out

    def scalar(self, metric: str) -> float:
        """Sum of a counter's series (0.0 when absent)."""
        return sum(value for _, value in self._series(metric))

    def port_busy_cycles(self) -> dict[tuple[int, int], float]:
        """(node, output) -> cycles busy, preferring the counters record."""
        busy: dict[tuple[int, int], float] = {}
        for labels, value in self._series("router_port_busy_cycles_total"):
            busy[(int(labels[0]), int(labels[1]))] = float(value)
        return busy or dict(self._event_port_busy)

    def measure_cycles(self) -> float | None:
        """The measurement window length, from the manifest config."""
        if self.manifest is None:
            return None
        cycles = self.manifest.config.get("measure_cycles")
        warmup = self.manifest.config.get("warmup_cycles", 0)
        if cycles is None:
            return None
        # Ports are busy across the whole run, warmup included; the
        # utilization denominator matches.
        return float(cycles) + float(warmup)

    def port_utilization(self) -> dict[tuple[int, int], float]:
        """(node, output) -> busy fraction of the simulated interval."""
        window = self.measure_cycles()
        if not window:
            return {}
        return {
            key: busy / window for key, busy in self.port_busy_cycles().items()
        }

    def utilization_by_output(self) -> dict[int, tuple[float, float]]:
        """output -> (mean, max) utilization across nodes."""
        per_port = self.port_utilization()
        by_output: dict[int, list[float]] = {}
        for (_, output), util in per_port.items():
            by_output.setdefault(output, []).append(util)
        return {
            output: (sum(values) / len(values), max(values))
            for output, values in sorted(by_output.items())
        }

    def mean_latency_cycles(self) -> float | None:
        """Mean delivery latency from the latency histogram."""
        snap = self.counters.get("sim_delivery_latency_cycles")
        if not snap:
            return None
        total = count = 0.0
        for entry in snap.get("series", ()):
            value = entry.get("value", {})
            total += value.get("sum", 0.0)
            count += value.get("count", 0)
        return total / count if count else None

    def resilience_counts(self) -> dict[str, int]:
        """Nonzero resilience totals (faults, retries, drops, checks).

        Prefers the counters record; for truncated traces that lack
        one, falls back to counting the corresponding event records
        (an undercount for ``grant_faults``, whose events are batched).
        """
        out: dict[str, int] = {}
        for name, metric, event_kind in (
            ("link_faults", "resilience_link_faults_total", "link-fault"),
            ("link_retries", "resilience_link_retries_total", None),
            ("grant_faults", "resilience_grant_faults_total", "grant-fault"),
            ("packets_dropped", "resilience_drops_total", "drop"),
            (
                "invariant_violations",
                "resilience_invariant_violations_total",
                "invariant",
            ),
            ("watchdog_fires", "resilience_watchdog_fires_total", "watchdog"),
            (
                "watchdog_remediations",
                "resilience_watchdog_remediations_total",
                "watchdog-remediation",
            ),
            ("drain_warnings", "resilience_drain_warnings_total", "drain-warn"),
            ("worker_lost", "resilience_worker_lost_total", "worker-lost"),
            (
                "point_timeouts",
                "resilience_point_timeouts_total",
                "point-timeout",
            ),
            ("quarantined", "resilience_quarantined_total", "quarantined"),
            ("service_leases", "service_leases_total", "lease-granted"),
            (
                "service_lease_expiries",
                "service_lease_expiries_total",
                "lease-expired",
            ),
            (
                "service_reassignments",
                "service_reassignments_total",
                None,
            ),
            (
                "service_worker_connects",
                "service_worker_connects_total",
                "worker-connect",
            ),
            (
                "service_duplicate_results",
                "service_duplicate_results_total",
                "duplicate-result",
            ),
        ):
            value = self.scalar(metric)
            if not value and event_kind is not None:
                value = float(self.event_counts.get(event_kind, 0))
            if value:
                out[name] = int(value)
        return out

    def _series(self, metric: str):
        snap = self.counters.get(metric)
        if not snap:
            return
        for entry in snap.get("series", ()):
            yield tuple(entry.get("labels", ())), entry.get("value", 0.0)

    def as_dict(self) -> dict:
        """Machine-readable digest (the ``--json`` form of ``summarize``).

        Carries the derived views sweep tooling wants -- arbitration
        counts, headline totals, per-output utilization, resilience
        totals -- not the raw counters snapshot (stream the trace again
        for that).
        """
        by_output = {
            output_port_name(output): {"mean": mean, "max": peak}
            for output, (mean, peak) in self.utilization_by_output().items()
        }
        manifest = self.manifest.to_record() if self.manifest else None
        if manifest is not None:
            manifest.pop("kind", None)
        return {
            "path": self.path,
            "algorithm": self.algorithm,
            "manifest": manifest,
            "arbitration": self.arbitration_counts(),
            "totals": {
                name: self.scalar(name)
                for name in (
                    "sim_injections_total",
                    "sim_deliveries_total",
                    "router_speculation_drops_total",
                    "router_starvation_engagements_total",
                )
            },
            "mean_latency_cycles": self.mean_latency_cycles(),
            "wall_time_s": self.wall_time_s,
            "truncated": self.truncated,
            "resilience": self.resilience_counts(),
            "utilization_by_output": by_output,
            "event_counts": dict(self.event_counts),
        }


def summarize_trace(path: str | Path, strict_schema: bool = True) -> TraceSummary:
    """Stream one JSONL trace into a :class:`TraceSummary`."""
    summary = TraceSummary(path=str(path))
    for record in read_jsonl(path):
        kind = record.get("kind")
        if kind == "manifest":
            summary.manifest = RunManifest.from_record(record)
            if strict_schema and summary.manifest.schema_version != OBS_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: trace schema v{summary.manifest.schema_version} "
                    f"does not match this reader (v{OBS_SCHEMA_VERSION})"
                )
        elif kind == "counters":
            summary.counters = record.get("counters", {})
        elif kind == "run-end":
            summary.wall_time_s = record.get("wall_time_s")
        elif kind == "truncated":
            summary.truncated = True
        else:
            summary.event_counts[kind] = summary.event_counts.get(kind, 0) + 1
            if kind == "watchdog" and len(summary.watchdog_diagnostics) < 8:
                summary.watchdog_diagnostics.append(
                    record.get("diagnostic", {})
                )
            if kind == "grant":
                key = (int(record["node"]), int(record["output"]))
                summary._event_port_busy[key] = (
                    summary._event_port_busy.get(key, 0.0)
                    + float(record.get("busy_cycles", 0.0))
                )
    return summary


def output_port_name(output: int) -> str:
    """Human name for an output-port index (falls back to the number)."""
    # Imported lazily: repro.router imports repro.core which imports
    # repro.obs.telemetry, so a module-level import here would close an
    # import cycle through the obs package __init__.
    from repro.router.ports import OutputPort

    try:
        return OutputPort(output).name
    except ValueError:
        return str(output)


@dataclass(frozen=True)
class MetricDelta:
    """One compared quantity between two traces."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def relative(self) -> float | None:
        if self.a == 0:
            return None
        return self.delta / self.a

    @property
    def relative_text(self) -> str:
        """Human form of :attr:`relative`; ``n/a`` on a zero baseline.

        Every renderer must go through this (not format the float
        directly): a zero-baseline delta has no relative change, and a
        bare ``None`` would otherwise reach a format spec and crash.
        """
        relative = self.relative
        return "n/a" if relative is None else f"{relative:+.1%}"

    def as_dict(self) -> dict:
        """JSON form; ``relative`` is ``null`` on a zero baseline."""
        return {
            "name": self.name,
            "a": self.a,
            "b": self.b,
            "delta": self.delta,
            "relative": self.relative,
        }


def diff_summaries(a: TraceSummary, b: TraceSummary) -> list[MetricDelta]:
    """Compare the headline aggregates of two traces.

    Arbitration counters are compared per algorithm label; scalar
    counters and the mean latency are compared directly.  Metrics
    present in only one trace still appear (the other side reads 0).
    """
    deltas: list[MetricDelta] = []
    arb_a, arb_b = a.arbitration_counts(), b.arbitration_counts()
    for algorithm in sorted(set(arb_a) | set(arb_b)):
        row_a = arb_a.get(algorithm, {})
        row_b = arb_b.get(algorithm, {})
        for key in ("nominations", "grants", "conflicts"):
            deltas.append(
                MetricDelta(
                    f"{algorithm}.{key}",
                    float(row_a.get(key, 0)),
                    float(row_b.get(key, 0)),
                )
            )
    for metric in (
        "sim_injections_total",
        "sim_deliveries_total",
        "router_starvation_engagements_total",
        "router_speculation_drops_total",
    ):
        deltas.append(MetricDelta(metric, a.scalar(metric), b.scalar(metric)))
    for metric in (
        "resilience_link_faults_total",
        "resilience_link_retries_total",
        "resilience_grant_faults_total",
        "resilience_drops_total",
        "resilience_invariant_violations_total",
        "resilience_watchdog_fires_total",
        "resilience_watchdog_remediations_total",
        "resilience_drain_warnings_total",
        "resilience_worker_lost_total",
        "resilience_point_timeouts_total",
        "resilience_quarantined_total",
    ):
        # Only fault-injected runs carry these; keep clean diffs clean.
        value_a, value_b = a.scalar(metric), b.scalar(metric)
        if value_a or value_b:
            deltas.append(MetricDelta(metric, value_a, value_b))
    latency_a, latency_b = a.mean_latency_cycles(), b.mean_latency_cycles()
    if latency_a is not None or latency_b is not None:
        deltas.append(
            MetricDelta(
                "mean_latency_cycles", latency_a or 0.0, latency_b or 0.0
            )
        )
    return deltas
