"""Bit-identity golden for the timing model.

Every headline number comes out of ``NetworkSimulator``, and performance
work on the router, the buffers or the event loop is only allowed to
make it faster: the same seed must give the same packets, the same
launches and the same nominations.  This file pins that for two small
regimes -- a 4x4 torus around the knee and an 8x8 torus driven hard
enough that buffers fill, heads block and escape channels carry
traffic -- under all four arbitration timings, with telemetry off and
with the event trace on.  The traced run also pins the telemetry bytes:
every record of the trace, counters snapshot included, digested with
the fields that describe the host or the wall clock left out
(``GOLDEN_TRACE``).  Those literals change only with a change that
declares new or different telemetry output, or with the model half.
One more traced run, a starving 2x2 under every grant fault
(``FAULTED_GOLDEN_TRACE``), pins where an arbitration pass's records
fall relative to each other: starve, grant-fault, conflict, grant.

The literals were generated from the commit *before* the nomination
index replaced the per-launch buffer scan.  They come in two halves.
The *model* half (what was simulated: packets, flits, throughput,
latencies, escape hops and the nomination trace) is regenerated only
with a modelling change, never with an optimisation.  The *effort* half
(how many events and nominations it took) is a function of the wake
policy -- same-cycle events run in scheduling order, so dropping a
futile wake reorders real ones (DESIGN.md, "The wake machine") -- and
may be regenerated alone by a change that declares a new wake policy
and leaves the model half literal.  A change that declares neither
keeps both, which is the proof that it reordered nothing.
"""

import hashlib
import json
from collections import defaultdict
from typing import NamedTuple

import pytest

from repro.core.antistarvation import AntiStarvationConfig
from repro.network.channels import ChannelKind
from repro.obs import MemorySink, Telemetry
from repro.resilience.faults import FaultConfig
from repro.router.router import Router
from repro.sim import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.timing_model import NetworkSimulator

#: side, injection rate, warm-up cycles, measured cycles
SHAPES = {
    "4x4-knee": (4, 0.045, 40, 80),
    "8x8-saturated": (8, 0.2, 20, 50),
}


class Model(NamedTuple):
    packets_delivered: int
    flits_delivered: int
    throughput: str
    packet_latency_ns: str
    transaction_latency_ns: str
    escape_hops: int


class Effort(NamedTuple):
    events_executed: int
    nominate_calls: int
    nominate_none: int


#: (model fingerprint, (nominate events traced, their digest))
GOLDEN_MODEL = {
    ("4x4-knee", "SPAA-base"): (
        Model(56, 200, "0.1875", "42.7759487285928", "83.44840153442567", 4),
        (355, "1eeb139f567cf71f"),
    ),
    ("4x4-knee", "SPAA-rotary"): (
        Model(56, 200, "0.1875", "42.7759487285928", "83.44840153442567", 3),
        (349, "5178927bbcadb2ec"),
    ),
    ("4x4-knee", "WFA-base"): (
        Model(49, 179, "0.16781249999999998",
              "44.69752436125036", "88.4787212981569", 1),
        (304, "d9cfb616453c5add"),
    ),
    ("4x4-knee", "PIM1"): (
        Model(48, 176, "0.16499999999999998",
              "44.98050502603293", "87.77818523252924", 0),
        (312, "2f6ba5f9cf9aae03"),
    ),
    ("8x8-saturated", "SPAA-base"): (
        Model(52, 156, "0.058499999999999996", "36.481874505100286", "nan", 83),
        (1980, "4649bfb0cd681c69"),
    ),
    ("8x8-saturated", "SPAA-rotary"): (
        Model(52, 156, "0.058499999999999996", "36.44571572129667", "nan", 79),
        (1974, "10bca88d74013ecd"),
    ),
    ("8x8-saturated", "WFA-base"): (
        Model(47, 141, "0.05287499999999999", "38.44098187505398", "nan", 43),
        (1543, "0382ce9e2a8aa66b"),
    ),
    ("8x8-saturated", "PIM1"): (
        Model(40, 120, "0.045", "37.50264083095158", "nan", 70),
        (1588, "24bd2dd94c0fcf4f"),
    ),
}

GOLDEN_EFFORT = {
    ("4x4-knee", "SPAA-base"): Effort(2178, 1297, 966),
    ("4x4-knee", "SPAA-rotary"): Effort(2168, 1296, 970),
    ("4x4-knee", "WFA-base"): Effort(1264, 576, 305),
    ("4x4-knee", "PIM1"): Effort(1224, 553, 283),
    ("8x8-saturated", "SPAA-base"): Effort(9726, 5171, 3417),
    ("8x8-saturated", "SPAA-rotary"): Effort(9700, 5159, 3410),
    ("8x8-saturated", "WFA-base"): Effort(4701, 1728, 638),
    ("8x8-saturated", "PIM1"): Effort(4641, 1697, 604),
}

#: digest of the whole traced record stream, see :func:`trace_digest`
GOLDEN_TRACE = {
    ("4x4-knee", "SPAA-base"): "1679136da208743a",
    ("4x4-knee", "SPAA-rotary"): "cfb73e4ba29ba7bf",
    ("4x4-knee", "WFA-base"): "a64a467b4c43930e",
    ("4x4-knee", "PIM1"): "28dd46a4fbd64cfc",
    ("8x8-saturated", "SPAA-base"): "d6e6d36e94cc0767",
    ("8x8-saturated", "SPAA-rotary"): "08655582f16248bd",
    ("8x8-saturated", "WFA-base"): "a7bddb5ca2ba840b",
    ("8x8-saturated", "PIM1"): "958939837644427a",
}

#: :func:`trace_digest` of :func:`faulted_starving_trace`
FAULTED_GOLDEN_TRACE = "02d514724758a2c2"

#: record fields that describe the host, the release or the wall clock
#: (manifest and run-end), not the simulated run
HOST_FIELDS = frozenset(
    {"package_version", "python", "platform", "created_at", "wall_time_s"}
)


def run_fingerprint(
    shape, algorithm, monkeypatch, telemetry=None
) -> tuple[Model, Effort]:
    side, rate, warmup, measure = SHAPES[shape]
    config = SimulationConfig(
        algorithm=algorithm,
        network=NetworkConfig(
            width=side, height=side, buffer_plan=saturation_buffer_plan()
        ),
        traffic=TrafficConfig(
            injection_rate=rate, mshr_limit=16, memory_latency_ns=20.0
        ),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=7,
    )
    launches = {"calls": 0, "none": 0, "escape_hops": 0}
    nominate, resolve = Router.nominate, Router.resolve

    def counting_nominate(router, *args, **kwargs):
        launch = nominate(router, *args, **kwargs)
        launches["calls"] += 1
        launches["none"] += launch is None
        return launch

    def counting_resolve(router, now, launch):
        dispatches = resolve(router, now, launch)
        launches["escape_hops"] += sum(
            dispatch.plan.target_channel is not None
            and dispatch.plan.target_channel.kind is not ChannelKind.ADAPTIVE
            for dispatch in dispatches
        )
        return dispatches

    with monkeypatch.context() as patch:
        patch.setattr(Router, "nominate", counting_nominate)
        patch.setattr(Router, "resolve", counting_resolve)
        simulator = NetworkSimulator(config, telemetry=telemetry)
        stats = simulator.run()
    queue = simulator.queue
    model = Model(
        packets_delivered=stats.packets_delivered,
        flits_delivered=stats.flits_delivered,
        throughput=repr(stats.delivered_flits_per_router_ns()),
        packet_latency_ns=repr(stats.packet_latency_ns.mean),
        transaction_latency_ns=repr(stats.transaction_latency_ns.mean),
        escape_hops=launches["escape_hops"],
    )
    effort = Effort(
        events_executed=queue._sequence - queue.pending,
        nominate_calls=launches["calls"],
        nominate_none=launches["none"],
    )
    return model, effort


def nomination_digest(records) -> tuple[int, str]:
    """Count and hash of the ``nominate`` events, in emission order.

    Packet uids come from a process-wide counter, so they are taken
    relative to the run's first injected packet.
    """
    first_uid = min(r["packet"] for r in records if r["kind"] == "inject")
    digest = hashlib.sha256()
    count = 0
    for record in records:
        if record["kind"] == "nominate":
            count += 1
            digest.update(
                repr((
                    record["time"],
                    record["node"],
                    record["row"],
                    record["packet"] - first_uid,
                    tuple(record["outputs"]),
                )).encode()
            )
    return count, digest.hexdigest()[:16]


def trace_digest(records) -> str:
    """Hash of every record in emission order, host fields dropped."""
    digest = hashlib.sha256()
    for record in records:
        kept = {k: v for k, v in record.items() if k not in HOST_FIELDS}
        digest.update(json.dumps(kept, sort_keys=True).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("shape, algorithm", list(GOLDEN_MODEL))
def test_timing_model_is_bit_identical_to_the_golden(shape, algorithm, monkeypatch):
    golden_model, nominations = GOLDEN_MODEL[shape, algorithm]
    golden_effort = GOLDEN_EFFORT[shape, algorithm]
    model, effort = run_fingerprint(shape, algorithm, monkeypatch)
    assert model == golden_model
    assert effort == golden_effort, "same results from a different event sequence"

    sink = MemorySink()
    traced = run_fingerprint(shape, algorithm, monkeypatch, Telemetry(sink=sink))
    assert traced == (model, effort), "an events-on Telemetry changed the run"
    assert nomination_digest(sink.records) == nominations
    assert trace_digest(sink.records) == GOLDEN_TRACE[shape, algorithm]


def test_the_saturated_shape_exercises_blocked_heads_and_escape_channels():
    """The golden is only a net if the hard cases are inside it."""
    for key, (model, _) in GOLDEN_MODEL.items():
        effort = GOLDEN_EFFORT[key]
        assert effort.nominate_none > 0
        if key[0] == "8x8-saturated":
            assert model.escape_hops >= 40
            assert effort.nominate_none > effort.nominate_calls // 3


def faulted_starving_trace() -> list[dict]:
    """WFA on a saturated 2x2 that drains old packets under grant faults.

    Anti-starvation engages at age 50 / two old packets, and the fault
    injector suppresses and mis-routes grants and stalls node 1 for a
    finite window, so single passes write starve, grant-fault and
    conflict records together.  Drained, so the trace ends clean.
    """
    config = SimulationConfig(
        algorithm="WFA-base",
        network=NetworkConfig(
            width=2, height=2, buffer_plan=saturation_buffer_plan()
        ),
        traffic=TrafficConfig(injection_rate=0.2),
        antistarvation=AntiStarvationConfig(age_threshold=50, drain_threshold=2),
        warmup_cycles=200,
        measure_cycles=1_000,
        seed=3,
    )
    faults = FaultConfig(
        seed=5,
        grant_suppression_rate=0.05,
        grant_misroute_rate=0.2,
        stall_node=1,
        stall_start_cycle=400.0,
        stall_cycles=150.0,
    )
    sink = MemorySink()
    simulator = NetworkSimulator(
        config, telemetry=Telemetry(sink=sink), faults=faults
    )
    simulator.run()
    assert simulator.drain()
    return sink.records


def test_faulted_starving_trace_is_bit_identical_to_the_golden():
    records = faulted_starving_trace()
    passes = defaultdict(list)
    for record in records:
        if record["kind"] in ("starve", "grant-fault", "conflict"):
            passes[record["time"], record["node"]].append(record["kind"])
    # The digest pins the per-pass order only if passes mix the kinds.
    assert any(
        {"starve", "grant-fault", "conflict"} <= set(kinds)
        for kinds in passes.values()
    )
    assert {
        record["fault"] for record in records if record["kind"] == "grant-fault"
    } == {"grant-suppressed", "grant-misrouted", "stall-blocked"}
    assert trace_digest(records) == FAULTED_GOLDEN_TRACE
