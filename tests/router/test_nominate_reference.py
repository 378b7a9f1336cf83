"""Differential tests: indexed nomination against the brute-force scan.

``Router.nominate`` reads a nomination index kept current from buffer
reports.  Before the index existed it rescanned, on every launch, every
occupied channel of every port for each of the 16 rows; that scan lives
on here as :class:`ReferenceArbiters` -- test-only, deliberately not
importable from ``src/`` -- and is the oracle for the index:

* over randomly built router states (hypothesis) the launch nominated,
  its hop plans, the per-row output toggles and the LRS stamps must
  equal the reference's, and after every step the maintained index
  must equal one rebuilt from the queues;
* shadowing every launch of a short saturated simulation, likewise.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.antistarvation import AntiStarvationConfig, AntiStarvationTracker
from repro.core.registry import ArbiterContext, make_arbiter
from repro.core.types import Nomination, SourceKind
from repro.network.channels import (
    BufferPlan,
    adaptive_channel,
    all_virtual_channels,
    entry_channel,
    escape_channel,
)
from repro.network.packets import Packet, PacketClass
from repro.network.routing import (
    adaptive_candidates,
    dimension_order_direction,
    escape_vc_after_hop,
)
from repro.network.topology import Direction, Torus2D
from repro.router.connection_matrix import DEFAULT_CONNECTION_MATRIX
from repro.router.ports import (
    LOCAL_INPUTS,
    NUM_ROWS,
    READ_PORTS_PER_INPUT,
    TORUS_OUTPUTS,
    InputPort,
    OutputPort,
    network_rows,
    output_for_direction,
    row_of,
)
from repro.router.router import HopPlan, Launch, Router
from repro.sim import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.timing_model import NetworkSimulator

CHANNELS = all_virtual_channels()
CHANNEL_RANK = {channel: rank for rank, channel in enumerate(CHANNELS)}
TORUS_INPUTS = tuple(port for port in InputPort if port.is_network)


class ReferenceArbiters:
    """The 16 read-port arbiters as a per-launch scan of *router*'s buffers.

    Reads the router's buffers, output busy times, wiring and downstream
    neighbours through their public surface and keeps its own
    arbitration state (in-flight marks, LRS stamps, output toggles), so
    it can run next to the router's own :meth:`Router.nominate` without
    either seeing the other.
    """

    def __init__(self, router: Router) -> None:
        self.router = router
        self.in_flight: set[int] = set()
        self.row_in_flight: set[int] = set()
        self.vc_stamp: dict[int, dict] = {}
        self.vc_clock = 0
        self.output_toggle: dict[int, int] = {}

    def nominate(self, now, resolve_time, fanout, nominations_per_port):
        router = self.router
        nominations = []
        plans = {}
        for port in InputPort:
            buffer = router.buffers[port]
            if buffer.is_empty():
                continue
            port_nominations = 0
            for read_port in range(READ_PORTS_PER_INPUT):
                if port_nominations >= nominations_per_port:
                    break
                row = row_of(port, read_port)
                if row in self.row_in_flight:
                    continue
                picked = self._pick_for_row(row, port, buffer, resolve_time, fanout)
                if picked is None:
                    continue
                packet, channel, candidates = picked
                nominations.append(
                    Nomination(
                        row=row,
                        packet=packet.uid,
                        outputs=tuple(int(plan.output) for plan in candidates),
                        source=(
                            SourceKind.NETWORK if port.is_network else SourceKind.LOCAL
                        ),
                        age=max(0, int(now - packet.waiting_since)),
                        group=int(port),
                        group_capacity=READ_PORTS_PER_INPUT,
                    )
                )
                for plan in candidates:
                    plans[(row, packet.uid, int(plan.output))] = plan
                self.in_flight.add(packet.uid)
                self.row_in_flight.add(row)
                self.vc_clock += 1
                self.vc_stamp.setdefault(row, {})[channel] = self.vc_clock
                port_nominations += 1
        if not nominations:
            return None
        return Launch(time=now, nominations=nominations, plans=plans)

    def release(self, launch: Launch) -> None:
        """What ``Router.resolve`` does to the in-flight marks: whether
        dropped, beaten or granted, every nomination is released."""
        for nom in launch.nominations:
            self.in_flight.discard(nom.packet)
            self.row_in_flight.discard(nom.row)

    def lrs_order(self, row: int) -> list[int]:
        """Channel indexes of *row*, least recently selected first."""
        stamps = self.vc_stamp.get(row, {})
        ordered = sorted(
            CHANNELS, key=lambda c: (stamps.get(c, 0), CHANNEL_RANK[c])
        )
        return [channel.index for channel in ordered]

    def _pick_for_row(self, row, port, buffer, resolve_time, fanout):
        for channel in self._channels_in_lrs_order(row, buffer):
            packet = buffer.head(channel)
            if packet is None or packet.uid in self.in_flight:
                continue
            candidates = self._candidate_plans(
                row, port, packet, channel, resolve_time
            )
            if not candidates:
                continue
            if fanout == 1 and len(candidates) > 1:
                toggle = self.output_toggle.get(row, 0)
                candidates = [candidates[toggle % len(candidates)]]
                self.output_toggle[row] = toggle + 1
            else:
                candidates = candidates[:fanout]
            return packet, channel, candidates
        return None

    def _channels_in_lrs_order(self, row, buffer):
        stamps = self.vc_stamp.get(row, {})
        return sorted(
            buffer.channels_with_waiting(),
            key=lambda c: (stamps.get(c, 0), CHANNEL_RANK[c]),
        )

    def _candidate_plans(self, row, port, packet, channel, resolve_time):
        router = self.router
        if packet.destination == router.node:
            return self._sink_plans(row, port, packet, channel, resolve_time)
        plans = []
        if packet.pclass.adaptive_allowed:
            for direction in adaptive_candidates(
                router.topology, router.node, packet.destination
            ):
                plan = self._network_plan(
                    row, port, packet, channel, direction,
                    adaptive_channel(packet.pclass), resolve_time,
                )
                if plan is not None:
                    plans.append(plan)
            if plans:
                return plans
        direction = dimension_order_direction(
            router.topology, router.node, packet.destination
        )
        if direction is None:
            return []
        vc_index = escape_vc_after_hop(
            router.topology, packet, router.node, direction
        )
        plan = self._network_plan(
            row, port, packet, channel, direction,
            escape_channel(packet.pclass, vc_index), resolve_time,
        )
        return [plan] if plan is not None else []

    def _network_plan(
        self, row, port, packet, channel, direction, target_channel, resolve_time
    ):
        router = self.router
        out_index = int(direction)
        if router.output_busy_until[out_index] > resolve_time:
            return None
        if (row, out_index) not in router.matrix.cells:
            return None
        if int(port) == out_index and port.is_network:
            return None
        output = output_for_direction(direction)
        neighbor, in_port = router.downstream[output]
        if not neighbor.buffers[in_port].can_reserve(target_channel):
            return None
        return HopPlan(
            packet=packet,
            in_port=port,
            from_channel=channel,
            output=output,
            target_channel=target_channel,
            direction=direction,
        )

    def _sink_plans(self, row, port, packet, channel, resolve_time):
        router = self.router
        sinks = packet.sink_outputs
        if sinks is None:
            sinks = (int(OutputPort.L0), int(OutputPort.L1))
        plans = []
        for out in sinks:
            output = OutputPort(out)
            if not router.matrix.connected(row, output):
                continue
            if router.output_busy_until[int(output)] > resolve_time:
                continue
            plans.append(
                HopPlan(
                    packet=packet,
                    in_port=port,
                    from_channel=channel,
                    output=output,
                    target_channel=None,
                    direction=None,
                )
            )
        return plans


def assert_same_launch(
    router: Router, reference: ReferenceArbiters, args, nominate=Router.nominate
) -> Launch:
    """Nominate both ways from the same state; everything must agree.

    *nominate* defaults to the method as imported, so a test that
    patches ``Router.nominate`` to shadow a simulation does not recurse.
    """
    expected = reference.nominate(*args)
    launch = nominate(router, *args)
    if expected is None:
        assert launch is None
    else:
        assert launch is not None
        assert launch.nominations == expected.nominations
        assert launch.plans == expected.plans
    assert router._in_flight == reference.in_flight
    assert {
        row for row in range(NUM_ROWS) if router._rows_in_flight >> row & 1
    } == reference.row_in_flight
    assert router._output_toggle == [
        reference.output_toggle.get(row, 0) for row in range(NUM_ROWS)
    ]
    assert router._vc_clock == reference.vc_clock
    for row in range(NUM_ROWS):
        stamps = router._vc_stamp[row]
        assert sorted(range(len(CHANNELS)), key=stamps.__getitem__) == (
            reference.lrs_order(row)
        )
        assert {i: s for i, s in enumerate(stamps) if s > 0} == {
            channel.index: stamp
            for channel, stamp in reference.vc_stamp.get(row, {}).items()
        }
    return launch


# -- randomly built router states ----------------------------------------------

WIDTH, HEIGHT = 4, 3  # an even and an odd ring, both with wrap links


def tight_plan() -> BufferPlan:
    return BufferPlan(
        adaptive_capacity={
            PacketClass.REQUEST: 2,
            PacketClass.FORWARD: 1,
            PacketClass.BLOCK_RESPONSE: 2,
            PacketClass.NONBLOCK_RESPONSE: 1,
        },
        escape_capacity=1,
        special_capacity=1,
    )


def build_network():
    topology = Torus2D(WIDTH, HEIGHT)
    routers = []
    for node in range(topology.num_nodes):
        rng = random.Random(100 + node)
        routers.append(
            Router(
                node=node,
                topology=topology,
                arbiter=make_arbiter(
                    "WFA-base", ArbiterContext(16, 7, network_rows(), rng)
                ),
                buffer_plan=tight_plan(),
                matrix=DEFAULT_CONNECTION_MATRIX,
                antistarvation=AntiStarvationTracker(AntiStarvationConfig()),
                rng=rng,
            )
        )
    for router in routers:
        for output in TORUS_OUTPUTS:
            neighbor = routers[topology.neighbor(router.node, output.direction)]
            in_port = InputPort(int(output.direction.opposite))
            router.downstream[output] = (neighbor, in_port)
    return routers


NODES = st.integers(0, WIDTH * HEIGHT - 1)
CLASSES = st.sampled_from(list(PacketClass))
SINKS = st.sampled_from(
    [None, (int(OutputPort.L0),), (int(OutputPort.L1),), (int(OutputPort.IO),),
     (int(OutputPort.L1), int(OutputPort.L0))]
)
STEPS = st.one_of(
    st.tuples(st.just("inject"), st.sampled_from(LOCAL_INPUTS), CLASSES, NODES, SINKS),
    st.tuples(
        st.just("arrive"), st.sampled_from(TORUS_INPUTS), CLASSES, NODES, SINKS,
        st.sampled_from([None, 0, 1]), st.sampled_from([None, *Direction]),
    ),
    st.tuples(st.just("depart"), st.sampled_from(list(InputPort)),
              st.sampled_from(CHANNELS)),
    st.tuples(st.just("busy"), st.sampled_from(list(OutputPort)),
              st.sampled_from([0.0, 6.0, 1e9])),
    st.tuples(st.just("block"), st.sampled_from(TORUS_OUTPUTS),
              st.sampled_from(CHANNELS)),
    st.tuples(st.just("unblock"), st.sampled_from(TORUS_OUTPUTS),
              st.sampled_from(CHANNELS)),
    st.tuples(st.just("reserve"), st.sampled_from(list(InputPort)),
              st.sampled_from(CHANNELS)),
    st.tuples(st.just("cancel"), st.sampled_from(list(InputPort)),
              st.sampled_from(CHANNELS)),
    st.tuples(st.just("nominate"), st.sampled_from([1, 2]), st.sampled_from([1, 2])),
    st.tuples(st.just("resolve")),
    st.tuples(st.just("reset")),
)


class Scenario:
    """One router under test, its reference and the launches in flight."""

    def __init__(self, node: int) -> None:
        self.routers = build_network()
        self.router = self.routers[node]
        self.reference = ReferenceArbiters(self.router)
        self.launches: list[Launch] = []
        self.now = 0.0

    def apply(self, step) -> None:
        self.now += 1.0
        getattr(self, step[0])(*step[1:])
        assert self.router.head_index_drift() == []

    def _packet(self, pclass, destination, sinks):
        if pclass is PacketClass.SPECIAL:
            destination = self.router.node  # the single channel has no escape
        return Packet(
            pclass, source=0, destination=destination,
            injected_at=self.now, sink_outputs=sinks,
        )

    def inject(self, port, pclass, destination, sinks):
        packet = self._packet(pclass, destination, sinks)
        self.router.buffers[port].inject(packet, entry_channel(pclass))

    def arrive(self, port, pclass, destination, sinks, escape_vc, last_direction):
        packet = self._packet(pclass, destination, sinks)
        packet.escape_vc = escape_vc
        packet.last_direction = last_direction
        if escape_vc is None and pclass.adaptive_allowed:
            channel = adaptive_channel(pclass)
        elif pclass is PacketClass.SPECIAL:
            channel = entry_channel(pclass)
        else:
            channel = escape_channel(pclass, escape_vc or 0)
        buffer = self.router.buffers[port]
        if buffer.can_reserve(channel):
            buffer.reserve(channel)
            buffer.commit(packet, channel)

    def depart(self, port, channel):
        buffer = self.router.buffers[port]
        head = buffer.head(channel)
        if head is not None and head.uid not in self.router._in_flight:
            buffer.remove(head, channel)

    def busy(self, output, until):
        self.router.output_busy_until[int(output)] = until

    def _downstream(self, output):
        neighbor, in_port = self.router.downstream[output]
        return neighbor.buffers[in_port]

    def block(self, output, channel):
        buffer = self._downstream(output)
        while buffer.can_reserve(channel):
            buffer.reserve(channel)

    def unblock(self, output, channel):
        buffer = self._downstream(output)
        while buffer.reserved(channel):
            buffer.cancel_reservation(channel)

    def reserve(self, port, channel):
        buffer = self.router.buffers[port]
        if buffer.can_reserve(channel):
            buffer.reserve(channel)

    def cancel(self, port, channel):
        buffer = self.router.buffers[port]
        if buffer.reserved(channel):
            buffer.cancel_reservation(channel)

    def nominate(self, fanout, nominations_per_port):
        launch = assert_same_launch(
            self.router,
            self.reference,
            (self.now, self.now + 3.0, fanout, nominations_per_port),
        )
        if launch is not None:
            self.launches.append(launch)

    def resolve(self):
        if self.launches:
            launch = self.launches.pop(0)
            self.router.resolve(self.now, launch)
            self.reference.release(launch)

    def reset(self):
        self.router.reset_arbitration_state()
        self.reference = ReferenceArbiters(self.router)
        self.launches.clear()


@settings(max_examples=200, deadline=None)
@given(node=NODES, steps=st.lists(STEPS, max_size=60))
def test_indexed_nomination_equals_the_scan_on_random_states(node, steps):
    scenario = Scenario(node)
    for step in steps:
        scenario.apply(step)
    for fanout, nominations_per_port in ((1, 1), (2, 2)):
        scenario.apply(("nominate", fanout, nominations_per_port))


@settings(max_examples=50, deadline=None)
@given(node=NODES, steps=st.lists(STEPS, max_size=40))
def test_reset_leaves_the_index_consistent_and_the_result_repeatable(node, steps):
    scenario = Scenario(node)
    for step in steps:
        scenario.apply(step)
    router = scenario.router
    args = (scenario.now, scenario.now + 3.0, 2, 2)

    router.reset_arbitration_state()
    assert router.head_index_drift() == []
    first = router.nominate(*args)
    router.reset_arbitration_state()
    assert router.head_index_drift() == []
    again = router.nominate(*args)

    expected = ReferenceArbiters(router).nominate(*args)
    for launch in (first, again):
        if expected is None:
            assert launch is None
        else:
            assert launch.nominations == expected.nominations
            assert launch.plans == expected.plans


# -- every launch of a saturated simulation --------------------------------------


def test_indexed_nomination_equals_the_scan_through_a_saturated_run(monkeypatch):
    references: dict[int, ReferenceArbiters] = {}
    launches = {"calls": 0, "none": 0, "escapes": 0}
    resolve = Router.resolve

    def shadowed_nominate(router, *args):
        reference = references.setdefault(router.node, ReferenceArbiters(router))
        launch = assert_same_launch(router, reference, args)
        launches["calls"] += 1
        if launch is None:
            launches["none"] += 1
        else:
            launches["escapes"] += sum(
                plan.target_channel is not None
                and plan.target_channel.kind.name != "ADAPTIVE"
                for plan in launch.plans.values()
            )
        return launch

    def shadowed_resolve(router, now, launch):
        dispatches = resolve(router, now, launch)
        references[router.node].release(launch)
        return dispatches

    monkeypatch.setattr(Router, "nominate", shadowed_nominate)
    monkeypatch.setattr(Router, "resolve", shadowed_resolve)
    for algorithm in ("SPAA-base", "WFA-base"):
        references.clear()
        simulator = NetworkSimulator(
            SimulationConfig(
                algorithm=algorithm,
                network=NetworkConfig(
                    width=4, height=4, buffer_plan=saturation_buffer_plan()
                ),
                traffic=TrafficConfig(
                    injection_rate=0.2, mshr_limit=16, memory_latency_ns=20.0
                ),
                warmup_cycles=50,
                measure_cycles=150,
                seed=3,
            )
        )
        simulator.run()
        for router in simulator.routers:
            assert router.head_index_drift() == []
    # The run must have reached the cases the index exists for.
    assert launches["calls"] > 2_000
    assert launches["none"] > launches["calls"] // 4
    assert launches["escapes"] > 20
