"""Names, units and applicability of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root is what a driver reads (names,
units, direction and, for the end-to-end metrics, the bound); this
module is what the harness reads, and it adds the two things that file
has no room for: which workloads a metric applies to and one line on
what it is.  ``test_e2e_smoke.py`` asserts the two agree.

Host time versus simulated time: every ``*_per_cpu_s``, ``*_per_s``,
``cpu_s``, ``setup_s`` and ``*_s`` number is *host* time and moves with
the machine; every ``model.*`` number is *simulated* and
repeats exactly for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

KNEE = "timing-4x4-knee"
SATURATED = "timing-8x8-saturated"
STANDALONE = "standalone-matching"
SWEEP = "sweep-supervised-traced"

ALL = (KNEE, SATURATED, STANDALONE, SWEEP)
NETWORK = (KNEE, SATURATED, SWEEP)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    about: str


#: gated by a driver (``BENCHMARK.json`` carries the bounds); defined on
#: every workload, never zero, and normalised by the work done, so that
#: they hold still when the seed -- and with it the traffic -- changes.
END_TO_END = (
    Metric("work_per_cpu_s", "1/s", "higher", ALL,
           "simulated work / host CPU-s: packets delivered in the measurement "
           "window (network workloads), object-path arbitrations over the "
           "CPU-s of the object half (standalone-matching)"),
    Metric("work_per_s", "1/s", "higher", ALL,
           "all simulated work of a pass / wall second, waiting included: "
           "packets delivered (network workloads), arbitrations of both "
           "backends (standalone-matching)"),
    Metric("peak_rss_mb", "MB", "lower", ALL,
           "max of ru_maxrss over the harness and its children"),
    Metric("setup_s", "s", "lower", ALL,
           "wall: import repro (+numpy), build configs, construct every "
           "simulator / model / journal; median of fresh interpreters"),
)

#: printed with the end-to-end block of a full run but not gated: they
#: move with the seed (a pass's traffic differs by up to 10% between
#: seeds), are zero when healthy, or apply to one workload only.  A
#: driver sees them as ``correct`` / ``failed`` or as per-layer metrics.
UNGATED = (
    Metric("cpu_s", "s", "lower", ALL,
           "host CPU-seconds (self + reaped children) for one pass"),
    Metric("points_per_s", "1/s", "higher", ALL,
           "grid points completed / wall second"),
    Metric("kernel_arbitrations_per_cpu_s", "1/s", "higher", (STANDALONE,),
           "vectorized-path arbitrations / host CPU-s of the large-batch half"),
    Metric("failed_share", "share", "lower", ALL,
           "points that raised, were quarantined or never landed / attempted"),
    Metric("result_mismatch_share", "share", "lower", ALL,
           "outputs whose simulated statistics fail the reference or a "
           "cross-check / outputs checked"),
)

#: traced pass only, except ``model.*`` which the untraced pass prints too.
PER_LAYER = (
    # sim (engine, timing_model, standalone)
    Metric("sim.run_s", "s", "lower", ALL,
           "NetworkSimulator.run / StandaloneRouterModel.run, inclusive"),
    Metric("sim.self_s", "s", "lower", ALL,
           "run span minus every child span: heap pops, callback bodies, "
           "traffic draws, workload generation"),
    Metric("sim.span_coverage", "share", "higher", NETWORK,
           "1 - sim.self_s / sim.run_s, minimum over the points"),
    Metric("sim.engine.events", "count", "lower", NETWORK,
           "EventQueue.schedule_at calls (exact)"),
    Metric("sim.engine.schedule_s", "s", "lower", NETWORK,
           "self time of EventQueue.schedule_at"),
    Metric("sim.engine.events_per_packet", "count", "lower", NETWORK,
           "events scheduled over the whole run / packets delivered in the "
           "measurement window (exact)"),
    # router
    Metric("router.nominate_s", "s", "lower", NETWORK,
           "self time of Router.nominate (routing and buffer children excluded)"),
    Metric("router.nominate_total_s", "s", "lower", NETWORK,
           "Router.nominate inclusive of its routing and buffer children"),
    Metric("router.nominate_calls", "count", "lower", NETWORK,
           "Router.nominate calls (exact)"),
    Metric("router.nominate_us_per_call", "us", "lower", NETWORK,
           "router.nominate_total_s / router.nominate_calls"),
    Metric("router.nominate_futile_share", "share", "lower", NETWORK,
           "Router.nominate calls returning None / calls (exact)"),
    Metric("router.resolve_s", "s", "lower", NETWORK,
           "self time of Router.resolve (arbiter, classify and buffers excluded)"),
    Metric("router.resolve_calls", "count", "lower", NETWORK,
           "Router.resolve calls (exact)"),
    Metric("router.speculation_drop_share", "share", "lower", NETWORK,
           "nominations no longer ready at resolve / nominations (exact)"),
    Metric("router.grants_per_resolve", "count", "higher", NETWORK,
           "dispatches returned / Router.resolve calls (exact)"),
    Metric("router.buffer_s", "s", "lower", NETWORK,
           "self time of InputBuffer's public methods"),
    Metric("router.buffer_calls", "count", "lower", NETWORK,
           "InputBuffer public method calls (exact)"),
    # network
    Metric("network.routing_s", "s", "lower", NETWORK,
           "adaptive_candidates, dimension_order_direction, "
           "escape_vc_after_hop, Torus2D.neighbor"),
    Metric("network.routing_calls", "count", "lower", NETWORK,
           "calls of those four (exact)"),
    # core
    Metric("core.arbitrate_s", "s", "lower", ALL,
           "Arbiter.arbitrate of every algorithm class"),
    Metric("core.arbitrate_calls", "count", "lower", ALL,
           "Arbiter.arbitrate calls (exact)"),
    Metric("core.arbitrate_us_per_call", "us", "lower", ALL,
           "core.arbitrate_s / core.arbitrate_calls"),
    Metric("core.classify_s", "s", "lower", NETWORK,
           "AntiStarvationTracker.classify"),
    Metric("core.matches_per_arbitration", "count", "higher", ALL,
           "grants returned / Arbiter.arbitrate calls (exact)"),
    # coherence
    Metric("coherence.start_s", "s", "lower", NETWORK,
           "self time of CoherenceEngine.try_start_transaction"),
    Metric("coherence.delivered_s", "s", "lower", NETWORK,
           "self time of CoherenceEngine.on_packet_delivered"),
    Metric("coherence.throttled_share", "share", "lower", NETWORK,
           "try_start_transaction returning None / calls (exact)"),
    # kernels
    Metric("kernels.run_batched_s", "s", "lower", (STANDALONE,),
           "repro.kernels.batch.run_batched, both batch sizes"),
    Metric("kernels.fallback_points", "count", "lower", (STANDALONE,),
           "vectorized cells that fell back to the object path"),
    Metric("kernels.speedup_vs_object", "ratio", "higher", (STANDALONE,),
           "object / vectorized span time on the cells both halves run"),
    Metric("kernels.batch_scaling_ratio", "ratio", "higher", (STANDALONE,),
           "arbitrations per span-second at the large batch / at the small "
           "batch (page-fault time included; >= 1 expected)"),
    Metric("kernels.arbitrations_per_cpu_s", "1/s", "higher", (STANDALONE,),
           "kernel_arbitrations_per_cpu_s, for a driver"),
    Metric("kernels.minor_faults", "count", "lower", (STANDALONE,),
           "page faults taken by the large-batch half"),
    # obs
    Metric("obs.sink_emit_s", "s", "lower", (SWEEP,),
           "JsonlSink.emit, serial in-process traced grid"),
    Metric("obs.trace_records", "count", "lower", (SWEEP,),
           "JsonlSink.emit calls (exact)"),
    Metric("obs.trace_bytes", "count", "lower", (SWEEP,),
           "bytes of JSONL written under the telemetry directory"),
    Metric("obs.records_per_packet", "count", "lower", (SWEEP,),
           "trace records / packets delivered in the window"),
    Metric("obs.tracing_overhead_ratio", "ratio", "lower", (SWEEP,),
           "serial in-process cpu_s with JSONL traces and journal / plain"),
    # resilience
    Metric("resilience.journal_record_s", "s", "lower", (SWEEP,),
           "SweepJournal.record_success in the supervising parent"),
    Metric("resilience.journal_records", "count", "lower", (SWEEP,),
           "SweepJournal.record_success calls (exact)"),
    Metric("resilience.supervisor_wait_s", "s", "lower", (SWEEP,),
           "parent blocked in PointSupervisor.next_event"),
    Metric("resilience.supervisor_events", "count", "lower", (SWEEP,),
           "PointSupervisor.next_event calls"),
    Metric("resilience.worker_failures", "count", "lower", (SWEEP,),
           "supervisor events other than a result"),
    # sim.parallel
    Metric("sim.parallel.cpu_overhead_ratio", "ratio", "lower", (SWEEP,),
           "supervised cpu_s / the same grid, journal and traces serial "
           "in-process"),
    # harness
    Metric("bench.tracing_overhead_ratio", "ratio", "lower", ALL,
           "cpu_s with the span wrappers installed / without"),
    # model (simulated, exact for a seed)
    Metric("model.throughput_flits_per_router_ns", "flits/ns", "higher", NETWORK,
           "mean delivered throughput over the points"),
    Metric("model.packet_latency_ns", "ns", "lower", NETWORK,
           "mean packet latency over the points"),
    Metric("model.transaction_latency_ns", "ns", "lower", NETWORK,
           "mean coherence-transaction latency over the points"),
    Metric("model.matches_per_arbitration", "count", "higher", (STANDALONE,),
           "mean matches per arbitration over the object-path cells"),
    Metric("model.paper_claim_abs_err_pp", "pp", "lower",
           (KNEE, SATURATED, STANDALONE),
           "|measured - paper| for the workload's headline claim, in "
           "percentage points; a tripwire for model drift, not a validation"),
)


def applicable(metrics: tuple[Metric, ...], workload: str) -> list[str]:
    return [metric.name for metric in metrics if workload in metric.workloads]
