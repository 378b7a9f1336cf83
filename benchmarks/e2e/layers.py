"""Per-layer metrics out of a :class:`spans.Tracer`'s call aggregates.

Every ``*_s`` number here except ``sim.run_s`` and
``router.nominate_total_s`` is a *self* time, so the layers under one
``sim.run`` are disjoint and add up to it:

    sim.run_s == sim.self_s + router.* + network.* + core.* + coherence.*
                 + sim.engine.schedule_s (+ obs.sink_emit_s when tracing)

A layer appears only where it was called, so a workload that never
enters a layer reports nothing for it instead of a zero.
"""

from __future__ import annotations

from spans import CallStats, Tracer

_NS = 1e-9


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def from_spans(tracer: Tracer, points: set[str], packets: int) -> dict[str, float]:
    """Metrics of the layers entered while *points* ran.

    *packets* is what those points delivered inside their measurement
    windows, the denominator of the per-packet ratios.
    """

    def total(name: str) -> CallStats:
        return tracer.total(name, points)

    metrics: dict[str, float] = {}

    run = total("sim.run")
    if run.calls:
        metrics["sim.run_s"] = run.total_ns * _NS
        metrics["sim.self_s"] = run.self_ns * _NS

    schedule = total("sim.engine.schedule")
    if schedule.calls:
        metrics["sim.engine.events"] = schedule.calls
        metrics["sim.engine.schedule_s"] = schedule.self_ns * _NS
        metrics["sim.engine.events_per_packet"] = _share(schedule.calls, packets)
        # Only event-driven runs have a meaningful coverage figure.
        metrics["sim.span_coverage"] = min(
            1.0 - _share(stats.self_ns, stats.total_ns)
            for point, stats in tracer.per_point("sim.run").items()
            if point in points
        )

    nominate = total("router.nominate")
    if nominate.calls:
        metrics["router.nominate_s"] = nominate.self_ns * _NS
        metrics["router.nominate_total_s"] = nominate.total_ns * _NS
        metrics["router.nominate_calls"] = nominate.calls
        metrics["router.nominate_us_per_call"] = (
            nominate.total_ns / nominate.calls / 1e3
        )
        metrics["router.nominate_futile_share"] = _share(
            nominate.nones, nominate.calls
        )

    resolve = total("router.resolve")
    classify = total("core.classify")
    if resolve.calls:
        metrics["router.resolve_s"] = resolve.self_ns * _NS
        metrics["router.resolve_calls"] = resolve.calls
        # classify sees exactly the nominations still alive at resolve.
        metrics["router.speculation_drop_share"] = _share(
            resolve.units_in - classify.units_in, resolve.units_in
        )
        metrics["router.grants_per_resolve"] = _share(
            resolve.units_out, resolve.calls
        )
        metrics["core.classify_s"] = classify.self_ns * _NS

    buffers = total("router.buffer")
    if buffers.calls:
        metrics["router.buffer_s"] = buffers.self_ns * _NS
        metrics["router.buffer_calls"] = buffers.calls

    routing = total("network.routing")
    if routing.calls:
        metrics["network.routing_s"] = routing.self_ns * _NS
        metrics["network.routing_calls"] = routing.calls

    arbitrate = total("core.arbitrate")
    if arbitrate.calls:
        metrics["core.arbitrate_s"] = arbitrate.self_ns * _NS
        metrics["core.arbitrate_calls"] = arbitrate.calls
        metrics["core.arbitrate_us_per_call"] = (
            arbitrate.self_ns / arbitrate.calls / 1e3
        )
        metrics["core.matches_per_arbitration"] = _share(
            arbitrate.units_out, arbitrate.calls
        )

    start = total("coherence.start")
    if start.calls:
        metrics["coherence.start_s"] = start.self_ns * _NS
        metrics["coherence.delivered_s"] = total("coherence.delivered").self_ns * _NS
        metrics["coherence.throttled_share"] = _share(start.nones, start.calls)

    batched = total("kernels.run_batched")
    if batched.calls:
        metrics["kernels.run_batched_s"] = batched.total_ns * _NS

    emit = total("obs.sink_emit")
    if emit.calls:
        metrics["obs.sink_emit_s"] = emit.self_ns * _NS
        metrics["obs.trace_records"] = emit.calls
        metrics["obs.records_per_packet"] = _share(emit.calls, packets)

    journal = total("resilience.journal_record")
    wait = total("resilience.supervisor_wait")
    if wait.calls:
        metrics["resilience.journal_record_s"] = journal.self_ns * _NS
        metrics["resilience.journal_records"] = journal.calls
        metrics["resilience.supervisor_wait_s"] = wait.self_ns * _NS
        metrics["resilience.supervisor_events"] = wait.calls
        metrics["resilience.worker_failures"] = wait.units_out

    return metrics


def negative_self_times(tracer: Tracer) -> list[str]:
    """Names whose self time came out negative (a broken span stack)."""
    return [
        f"{name} in {point}"
        for (point, name), stats in tracer.calls.items()
        if stats.self_ns < 0
    ]


def kernel_ratios(tracer: Tracer, trials: dict[str, int]) -> dict[str, float]:
    """The two kernel ratios, from the standalone cells' spans.

    *trials* maps every cell (point) of the pass to its trial count.
    Span time is wall time and includes the page faults of the large
    batch's temporaries -- the fall-off the large batch is there to show.
    """
    runs = tracer.per_point("sim.run")
    batched = tracer.per_point("kernels.run_batched")
    sizes = sorted({count for cell, count in trials.items() if cell in batched})
    rate = {}
    for size in sizes:
        cells = [c for c in batched if trials[c] == size]
        rate[size] = _share(
            size * len(cells), sum(batched[c].total_ns for c in cells)
        )
    metrics = {}
    if len(sizes) == 2 and rate[sizes[0]]:
        metrics["kernels.batch_scaling_ratio"] = rate[sizes[1]] / rate[sizes[0]]
    object_ns = vectorized_ns = 0
    for cell in batched:
        twin = cell.replace("/vectorized/", "/object/")
        if twin in runs:
            object_ns += runs[twin].total_ns
            vectorized_ns += runs[cell].total_ns
    if vectorized_ns:
        metrics["kernels.speedup_vs_object"] = object_ns / vectorized_ns
    return metrics
