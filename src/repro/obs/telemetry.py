"""The telemetry facade the simulators and the router talk to.

One :class:`Telemetry` object aggregates a metrics registry and a trace
sink behind the narrow set of hooks the hot paths call.  The design
rule is *one branch when disabled*: every instrumented site reads
``self.telemetry`` (a plain attribute, defaulting to
:data:`NULL_TELEMETRY`) and tests ``.enabled`` before doing any work,
so a simulation without telemetry pays an attribute load and a
predictable branch -- nothing else.

Within an enabled Telemetry there are still two tiers:

* **counters** always run -- a dict hit plus a float add per site;
* **events** (per-packet trace records) only run when the sink is
  real (``sink.active``), because serializing every grant of a
  multi-million-event run is only worth it when someone asked for the
  trace.  A hook builds its record once: the four per-packet kinds
  (``inject``, ``nominate``, ``grant``, ``deliver``; 97% of a trace) as
  the compact JSON line itself (``sink.write``), every other kind as
  the wire dict the sink serializes (``sink.emit``).  Both give the
  same bytes; :data:`repro.obs.events.RECORD_FIELDS` is the schema.

The same Telemetry instance is shared by every router of a simulation,
so counters are network-wide totals; per-node series carry the node as
a label.
"""

from __future__ import annotations

import time
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any

from repro.obs.manifest import RunManifest
from repro.obs.registry import MetricsRegistry, MetricSeries
from repro.obs.sink import NullSink, TraceSink

#: packet-latency histogram bounds, in core cycles (powers of two keep
#: saturated-run tails visible without a per-run calibration pass).
LATENCY_BOUNDS_CYCLES = tuple(float(2**e) for e in range(5, 17))


class Telemetry:
    """Live telemetry: counters + optional trace events."""

    enabled = True

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        #: per-packet trace records only flow into a real sink.
        self.events = self.sink.active
        self.registry = MetricsRegistry()
        self.manifest: RunManifest | None = None
        self._finalized = False

        registry = self.registry
        self._nominated = registry.counter(
            "arb_nominations_total",
            "nominations presented to the arbitration algorithm",
            ("algorithm",),
        )
        self._granted = registry.counter(
            "arb_grants_total",
            "nominations granted by the arbitration algorithm",
            ("algorithm",),
        )
        self._conflicted = registry.counter(
            "arb_conflicts_total",
            "live nominations left unserved by an arbitration pass "
            "(the paper's arbitration collisions)",
            ("algorithm",),
        )
        self._injections = registry.counter(
            "sim_injections_total", "packets entering local injection queues"
        )
        self._deliveries = registry.counter(
            "sim_deliveries_total", "packets sunk at their destination"
        )
        self._latency = registry.histogram(
            "sim_delivery_latency_cycles",
            "injection-to-delivery packet latency",
            bounds=LATENCY_BOUNDS_CYCLES,
        )
        self._starvations = registry.counter(
            "router_starvation_engagements_total",
            "anti-starvation draining-mode engagements",
        )
        self._speculation_drops = registry.counter(
            "router_speculation_drops_total",
            "nominations whose outputs went stale between launch and "
            "resolve (SPAA's speculation window)",
        )
        self._port_busy = registry.counter(
            "router_port_busy_cycles_total",
            "cycles each output port spent serving granted packets",
            ("node", "output"),
        )
        self._port_grants = registry.counter(
            "router_port_grants_total",
            "grants through each output port",
            ("node", "output"),
        )
        self._link_faults = registry.counter(
            "resilience_link_faults_total",
            "injected link faults (lost or corrupted flits), by kind",
            ("fault",),
        )
        self._link_retries = registry.counter(
            "resilience_link_retries_total",
            "link-level retransmissions triggered by injected faults",
        )
        self._grant_faults = registry.counter(
            "resilience_grant_faults_total",
            "injected grant faults (suppressed, mis-routed, stalled)",
            ("fault",),
        )
        self._drops = registry.counter(
            "resilience_drops_total",
            "packets dropped with a recorded reason",
            ("reason",),
        )
        self._invariant_violations = registry.counter(
            "resilience_invariant_violations_total",
            "runtime invariant check failures",
            ("invariant",),
        )
        self._watchdog_fires = registry.counter(
            "resilience_watchdog_fires_total",
            "progress-watchdog stall detections",
        )
        self._watchdog_remediations = registry.counter(
            "resilience_watchdog_remediations_total",
            "watchdog recovery-kick resolutions, by outcome "
            "(remediated = lost wake-up, deadlocked = kick failed)",
            ("outcome",),
        )
        self._drain_warnings = registry.counter(
            "resilience_drain_warnings_total",
            "drains that exhausted their budget with packets left",
        )
        self._worker_lost = registry.counter(
            "resilience_worker_lost_total",
            "supervised pool workers that died mid-task "
            "(see repro.resilience.supervisor)",
        )
        self._point_timeouts = registry.counter(
            "resilience_point_timeouts_total",
            "supervised tasks reaped at their wall-clock deadline or "
            "heartbeat-staleness threshold",
        )
        self._quarantined = registry.counter(
            "resilience_quarantined_total",
            "poison tasks abandoned after repeated supervised crashes",
        )
        self._service_leases = registry.counter(
            "service_leases_total",
            "fleet tasks leased to remote workers (see repro.service)",
        )
        self._service_lease_expiries = registry.counter(
            "service_lease_expiries_total",
            "fleet leases that blew their deadline or heartbeat bound",
        )
        self._service_reassignments = registry.counter(
            "service_reassignments_total",
            "fleet tasks re-leased after a crash, kick or disconnect",
        )
        self._service_worker_connects = registry.counter(
            "service_worker_connects_total",
            "remote fleet workers that joined (or rejoined)",
        )
        self._service_duplicate_results = registry.counter(
            "service_duplicate_results_total",
            "stale fleet deliveries discarded by the exactly-once check",
        )
        #: bound-series caches so hot sites never re-resolve labels.
        self._algo_series: dict[str, tuple[MetricSeries, ...]] = {}
        self._port_series: dict[tuple[int, int], tuple[MetricSeries, MetricSeries]] = {}
        self._extra_series: dict[tuple[str, str], MetricSeries] = {}

    # -- lifecycle -------------------------------------------------------

    def open_run(self, config: Any, **extra: Any) -> None:
        """Write the manifest header for one run."""
        self.manifest = RunManifest.from_config(config, **extra)
        self._started = time.perf_counter()
        if self.sink.active:
            self.sink.emit(self.manifest.to_record())

    def finalize(self, **footer: Any) -> None:
        """Write counters/footer records and close the sink.

        Idempotent: the timing model finalizes at the end of
        :meth:`~repro.sim.timing_model.NetworkSimulator.run`, and
        callers that also finalize explicitly are harmless.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.sink.active:
            self.sink.emit({"kind": "counters", "counters": self.registry.snapshot()})
            record = {"kind": "run-end"}
            if self.manifest is not None:
                record["wall_time_s"] = time.perf_counter() - self._started
            record.update(footer)
            self.sink.emit(record)
        self.sink.close()

    # -- arbiter-level hooks ---------------------------------------------

    def on_arbitration(
        self, algorithm: str, nominated: int, granted: int, wasted: int = 0
    ) -> None:
        """One arbitration pass of *algorithm*.

        Called by whoever ran the arbiter (the router's GA stage, the
        standalone model) with the number of nominations it passed in
        and of grants it got back, before any fault filters them; every
        nomination left unserved is a conflict.  *wasted* is the
        arbiter's ``wasted_grants`` (PIM's accept-step waste).
        """
        series = self._algo_series.get(algorithm)
        if series is None:
            series = (
                self._nominated.labels(algorithm),
                self._granted.labels(algorithm),
                self._conflicted.labels(algorithm),
            )
            self._algo_series[algorithm] = series
        series[0].inc(nominated)
        series[1].inc(granted)
        series[2].inc(nominated - granted)
        if wasted:
            self.count_algo("pim_wasted_grants_total", algorithm, wasted)

    def count_algo(self, name: str, algorithm: str, amount: float = 1.0) -> None:
        """Increment an algorithm-specific counter (e.g. PIM wasted grants)."""
        key = (name, algorithm)
        series = self._extra_series.get(key)
        if series is None:
            series = self.registry.counter(name, label_names=("algorithm",)).labels(
                algorithm
            )
            self._extra_series[key] = series
        series.inc(amount)

    # -- router-level hooks ----------------------------------------------
    #
    # The per-packet hooks write their line in RECORD_FIELDS order,
    # exactly as json.dumps(..., separators=(",", ":")) would: floats as
    # repr (EventQueue keeps times finite, so never NaN or inf; the
    # durations derive from them), strings JSON-escaped.

    def on_nomination(
        self, now: float, node: int, row: int, packet: int, outputs: tuple[int, ...]
    ) -> None:
        if self.events:
            self.sink.write(
                f'{{"time":{now!r},"node":{node},"row":{row},"packet":{packet},'
                f'"outputs":[{",".join(map(str, outputs))}],"kind":"nominate"}}'
            )

    def on_dispatch(
        self,
        now: float,
        node: int,
        row: int,
        packet: int,
        output: int,
        busy_cycles: float,
    ) -> None:
        """A grant took effect: output *output* is busy *busy_cycles*."""
        ports = self._port_series.get((node, output))
        if ports is None:
            ports = (
                self._port_busy.labels(node, output),
                self._port_grants.labels(node, output),
            )
            self._port_series[(node, output)] = ports
        ports[0].inc(busy_cycles)
        ports[1].inc()
        if self.events:
            self.sink.write(
                f'{{"time":{now!r},"node":{node},"row":{row},"packet":{packet},'
                f'"output":{output},"busy_cycles":{busy_cycles!r},"kind":"grant"}}'
            )

    def on_conflicts(self, now: float, node: int, algorithm: str, count: int) -> None:
        if self.events:
            self.sink.emit(
                {"time": now, "node": node, "algorithm": algorithm,
                 "count": count, "kind": "conflict"}
            )

    def on_speculation_drops(self, count: int) -> None:
        self._speculation_drops.inc(count)

    def on_starvation(
        self, now: float, node: int, old_count: int, engaged: bool
    ) -> None:
        if engaged:
            self._starvations.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "node": node, "old_count": old_count,
                 "engaged": engaged, "kind": "starve"}
            )

    # -- simulator-level hooks -------------------------------------------

    def on_injection(
        self, now: float, node: int, packet: int, pclass: str, destination: int
    ) -> None:
        self._injections.inc()
        if self.events:
            self.sink.write(
                f'{{"time":{now!r},"node":{node},"packet":{packet},'
                f'"pclass":{_json_str(pclass)},"destination":{destination},'
                f'"kind":"inject"}}'
            )

    def on_delivery(
        self,
        now: float,
        node: int,
        packet: int,
        pclass: str,
        latency_cycles: float,
        hops: int,
    ) -> None:
        self._deliveries.inc()
        self._latency.observe(latency_cycles)
        if self.events:
            self.sink.write(
                f'{{"time":{now!r},"node":{node},"packet":{packet},'
                f'"pclass":{_json_str(pclass)},'
                f'"latency_cycles":{latency_cycles!r},"hops":{hops},'
                f'"kind":"deliver"}}'
            )

    # -- resilience hooks --------------------------------------------------

    def on_link_fault(
        self, now: float, node: int, packet: int, fault: str, attempt: int
    ) -> None:
        """An injected link fault hit *packet* arriving at *node*."""
        self._link_faults.labels(fault).inc()
        if self.events:
            self.sink.emit(
                {"time": now, "node": node, "packet": packet, "fault": fault,
                 "attempt": attempt, "kind": "link-fault"}
            )

    def on_link_retry(self) -> None:
        self._link_retries.inc()

    def on_grant_fault(self, now: float, node: int, fault: str, count: int) -> None:
        """Injected grant faults at one router's arbitration pass."""
        self._grant_faults.labels(fault).inc(count)
        if self.events:
            self.sink.emit(
                {"time": now, "node": node, "fault": fault, "count": count,
                 "kind": "grant-fault"}
            )

    def on_drop(
        self, now: float, node: int, packet: int, pclass: str, reason: str
    ) -> None:
        """A packet was dropped with a recorded reason."""
        self._drops.labels(reason).inc()
        if self.events:
            self.sink.emit(
                {"time": now, "node": node, "packet": packet, "pclass": pclass,
                 "reason": reason, "kind": "drop"}
            )

    def on_invariant_violation(self, now: float, name: str, detail: str) -> None:
        self._invariant_violations.labels(name).inc()
        if self.events:
            self.sink.emit(
                {"time": now, "name": name, "detail": detail, "kind": "invariant"}
            )

    def on_watchdog(self, now: float, diagnostic: dict) -> None:
        self._watchdog_fires.inc()
        if self.events:
            self.sink.emit(
                {"kind": "watchdog", "time": now, "diagnostic": diagnostic}
            )

    def on_watchdog_remediation(self, now: float, outcome: str) -> None:
        """A recovery kick resolved: ``remediated`` or ``deadlocked``."""
        self._watchdog_remediations.labels(outcome).inc()
        if self.events:
            self.sink.emit(
                {"time": now, "outcome": outcome, "kind": "watchdog-remediation"}
            )

    def on_drain_exhausted(
        self, now: float, buffered: int, pending: int, in_transit: int
    ) -> None:
        self._drain_warnings.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "buffered": buffered, "pending": pending,
                 "in_transit": in_transit, "kind": "drain-warn"}
            )

    # -- supervisor hooks (now = seconds since the supervisor started) ----

    def on_worker_lost(
        self, now: float, task: str, detail: str, crashes: int
    ) -> None:
        """A supervised pool worker died while running *task*."""
        self._worker_lost.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "task": task, "detail": detail,
                 "crashes": crashes, "kind": "worker-lost"}
            )

    def on_point_timeout(
        self, now: float, task: str, detail: str, crashes: int
    ) -> None:
        """A supervised task was reaped at a deadline/staleness bound."""
        self._point_timeouts.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "task": task, "detail": detail,
                 "crashes": crashes, "kind": "point-timeout"}
            )

    def on_quarantine(
        self, now: float, task: str, crashes: int, detail: str
    ) -> None:
        """A poison task was abandoned after *crashes* worker crashes."""
        self._quarantined.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "task": task, "crashes": crashes,
                 "detail": detail, "kind": "quarantined"}
            )

    # -- service hooks (now = seconds since the coordinator started) ------

    def on_lease_granted(
        self, now: float, task: str, worker: str, dispatch: int, reassigned: bool
    ) -> None:
        """The fleet coordinator leased *task* to *worker*."""
        self._service_leases.inc()
        if reassigned:
            self._service_reassignments.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "task": task, "worker": worker,
                 "dispatch": dispatch, "reassigned": reassigned,
                 "kind": "lease-granted"}
            )

    def on_lease_expired(
        self, now: float, task: str, worker: str, detail: str
    ) -> None:
        """A fleet lease blew its deadline or heartbeat bound."""
        self._service_lease_expiries.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "task": task, "worker": worker, "detail": detail,
                 "kind": "lease-expired"}
            )

    def on_worker_connect(self, now: float, worker: str) -> None:
        """A remote fleet worker joined (or rejoined)."""
        self._service_worker_connects.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "worker": worker, "kind": "worker-connect"}
            )

    def on_duplicate_result(self, now: float, task: str, worker: str) -> None:
        """A stale fleet delivery was discarded, never journalled."""
        self._service_duplicate_results.inc()
        if self.events:
            self.sink.emit(
                {"time": now, "task": task, "worker": worker,
                 "kind": "duplicate-result"}
            )

    # -- summaries --------------------------------------------------------

    def arbitration_summary(self) -> dict[str, dict[str, int]]:
        """Per-algorithm nomination/grant/conflict totals."""
        summary: dict[str, dict[str, int]] = {}
        for algorithm, (nominated, granted, conflicted) in sorted(
            self._algo_series.items()
        ):
            summary[algorithm] = {
                "nominations": int(nominated.value),
                "grants": int(granted.value),
                "conflicts": int(conflicted.value),
            }
        return summary

    def port_busy_cycles(self) -> dict[tuple[int, int], float]:
        """(node, output) -> cycles the port spent busy."""
        return {
            key: series[0].value for key, series in self._port_series.items()
        }


class _NullTelemetry:
    """The shared disabled singleton: the flags sites read, no hooks.

    Every instrumented site tests ``.enabled`` (or ``.events``) before
    it calls a hook, so this class has none: a call that forgets the
    guard raises ``AttributeError`` in the tests instead of silently
    paying a method call per event.
    """

    enabled = False
    events = False

    def __bool__(self) -> bool:
        return False


#: the module-wide disabled telemetry; hot paths default to this.
NULL_TELEMETRY = _NullTelemetry()
