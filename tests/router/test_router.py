"""Unit tests for the Router's nominate/resolve launch machinery.

These build a tiny 2x2 torus of routers by hand (no simulator) and
drive one router through launches directly, checking the readiness
tests, escape routing, credit reservations and grant effects.
"""

import random

import pytest

from repro.core.antistarvation import AntiStarvationConfig, AntiStarvationTracker
from repro.core.registry import ArbiterContext, make_arbiter
from repro.network.channels import (
    BufferPlan,
    adaptive_channel,
    entry_channel,
    escape_channel,
)
from repro.network.packets import Packet, PacketClass
from repro.network.topology import Torus2D
from repro.router.connection_matrix import DEFAULT_CONNECTION_MATRIX
from repro.router.ports import InputPort, OutputPort, TORUS_OUTPUTS, network_rows
from repro.router.router import Router


def build_network(algorithm="SPAA-base", width=2, height=2, plan=None):
    topology = Torus2D(width, height)
    plan = plan or BufferPlan()
    routers = []
    for node in range(topology.num_nodes):
        rng = random.Random(100 + node)
        context = ArbiterContext(16, 7, network_rows(), rng)
        routers.append(
            Router(
                node=node,
                topology=topology,
                arbiter=make_arbiter(algorithm, context),
                buffer_plan=plan,
                matrix=DEFAULT_CONNECTION_MATRIX,
                antistarvation=AntiStarvationTracker(AntiStarvationConfig()),
                rng=rng,
            )
        )
    for router in routers:
        for output in TORUS_OUTPUTS:
            direction = output.direction
            neighbor = routers[topology.neighbor(router.node, direction)]
            in_port = InputPort(int(direction.opposite))
            router.downstream[output] = (neighbor, in_port)
    return topology, routers


def inject(router, packet, port=InputPort.CACHE):
    channel = entry_channel(packet.pclass)
    assert router.buffers[port].inject(packet, channel)
    return channel


class TestNominate:
    def test_empty_router_nominates_nothing(self):
        _, routers = build_network()
        assert routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1) is None

    def test_network_bound_packet_nominated_to_torus_output(self):
        _, routers = build_network()
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1)
        assert launch is not None
        assert len(launch.nominations) == 1
        nom = launch.nominations[0]
        # 0 -> 1 on a 2x2 torus: one hop east (or west; tie resolves east).
        assert nom.outputs == (int(OutputPort.EAST),)

    def test_local_destination_targets_the_mc_sink(self):
        _, routers = build_network()
        packet = Packet(
            PacketClass.REQUEST, source=0, destination=0,
            sink_outputs=(int(OutputPort.L1),),
        )
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=2, nominations_per_port=2)
        assert launch.nominations[0].outputs == (int(OutputPort.L1),)

    def test_response_may_sink_through_either_local_port(self):
        _, routers = build_network()
        packet = Packet(PacketClass.BLOCK_RESPONSE, source=1, destination=0)
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=2, nominations_per_port=2)
        assert set(launch.nominations[0].outputs) == {
            int(OutputPort.L0), int(OutputPort.L1)
        }

    def test_nominated_packet_marked_in_flight_until_resolve(self):
        _, routers = build_network()
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(routers[0], packet)
        first = routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1)
        assert first is not None
        # Same packet cannot be nominated again before the reset step.
        assert routers[0].nominate(1.0, 4.0, fanout=1, nominations_per_port=1) is None

    def test_busy_output_blocks_nomination(self):
        _, routers = build_network()
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(routers[0], packet)
        routers[0].output_busy_until[int(OutputPort.EAST)] = 100.0
        routers[0].output_busy_until[int(OutputPort.WEST)] = 100.0
        assert routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1) is None

    def test_full_downstream_buffer_blocks_adaptive_then_uses_escape(self):
        topology, routers = build_network(width=4, height=2)
        # Fill the downstream adaptive request channel completely.
        east_neighbor = routers[1]
        adaptive = adaptive_channel(PacketClass.REQUEST)
        while east_neighbor.buffers[InputPort.WEST].can_reserve(adaptive):
            east_neighbor.buffers[InputPort.WEST].reserve(adaptive)
        packet = Packet(PacketClass.REQUEST, source=0, destination=2)
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=2, nominations_per_port=2)
        assert launch is not None
        # 0 -> 2 on a 4x2 torus is two hops east: only east is minimal,
        # so the escape path also goes east but on VC0.
        (key,) = [k for k in launch.plans]
        plan = launch.plans[key]
        assert plan.output is OutputPort.EAST
        assert plan.target_channel == escape_channel(PacketClass.REQUEST, 0)

    def test_io_packets_only_use_escape_channels(self):
        _, routers = build_network()
        packet = Packet(PacketClass.READ_IO, source=0, destination=1)
        inject(routers[0], packet, port=InputPort.IO)
        launch = routers[0].nominate(0.0, 3.0, fanout=2, nominations_per_port=2)
        (key,) = [k for k in launch.plans]
        assert launch.plans[key].target_channel.kind.name in ("VC0", "VC1")


class TestResolve:
    def test_grant_moves_packet_and_reserves_downstream(self):
        _, routers = build_network()
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1)
        dispatches = routers[0].resolve(3.0, launch)
        assert len(dispatches) == 1
        dispatch = dispatches[0]
        assert dispatch.packet is packet
        assert routers[0].buffers[InputPort.CACHE].is_empty()
        assert packet.hops == 1
        # Output busy for 3 flits x 1.5 cycles on a torus link.
        assert routers[0].output_busy_until[int(OutputPort.EAST)] == \
            pytest.approx(3.0 + 4.5)
        # Downstream slot reserved for the arrival.
        west = routers[1].buffers[InputPort.WEST]
        assert west.free_slots(adaptive_channel(PacketClass.REQUEST)) == \
            west.capacity(adaptive_channel(PacketClass.REQUEST)) - 1

    def test_local_sink_grant_uses_one_cycle_per_flit(self):
        # WFA accepts the two-output (L0 or L1) sink nomination.
        _, routers = build_network(algorithm="WFA-base")
        packet = Packet(PacketClass.BLOCK_RESPONSE, source=1, destination=0)
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=2, nominations_per_port=2)
        dispatch = routers[0].resolve(3.0, launch)[0]
        assert dispatch.service_cycles == pytest.approx(19.0)
        assert dispatch.plan.target_channel is None

    def test_loser_released_for_renomination(self):
        """Two packets race for the east output; the loser renominates."""
        _, routers = build_network(width=4, height=2)
        first = Packet(PacketClass.REQUEST, source=0, destination=2)
        second = Packet(PacketClass.FORWARD, source=0, destination=2)
        inject(routers[0], first)
        inject(routers[0], second, port=InputPort.MC0)
        launch = routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1)
        assert len(launch.nominations) == 2
        dispatches = routers[0].resolve(3.0, launch)
        assert len(dispatches) == 1  # collision: east can take one
        relaunch = routers[0].nominate(3.0, 6.0, fanout=1, nominations_per_port=1)
        assert relaunch is None or len(relaunch.nominations) <= 1
        # The loser is no longer in flight: after its output frees it
        # can be nominated again.
        routers[0].output_busy_until[int(OutputPort.EAST)] = 0.0
        retry = routers[0].nominate(10.0, 13.0, fanout=1, nominations_per_port=1)
        assert retry is not None

    def test_speculative_collision_detected_at_resolve(self):
        """SPAA pipelining: output taken between nominate and resolve."""
        _, routers = build_network()
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(routers[0], packet)
        launch = routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1)
        # Another launch's grant occupies the east output meanwhile.
        routers[0].output_busy_until[int(OutputPort.EAST)] = 50.0
        dispatches = routers[0].resolve(3.0, launch)
        assert dispatches == []
        assert not routers[0].buffers[InputPort.CACHE].is_empty()

    def test_upstream_node_mapping(self):
        topology, routers = build_network(width=4, height=2)
        router = routers[0]
        assert router.upstream_node(InputPort.EAST) == topology.neighbor(
            0, InputPort.EAST.direction
        )
        with pytest.raises(ValueError):
            router.upstream_node(InputPort.CACHE)

    def test_reset_clears_dynamic_state(self):
        _, routers = build_network()
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(routers[0], packet)
        routers[0].nominate(0.0, 3.0, fanout=1, nominations_per_port=1)
        routers[0].reset_arbitration_state()
        # In-flight cleared: the packet can be nominated again.
        assert routers[0].nominate(5.0, 8.0, fanout=1, nominations_per_port=1) \
            is not None


class TestFreeMask:
    def test_equals_the_per_output_loop_around_every_busy_window_end(self):
        _, routers = build_network()
        router = routers[0]
        router.output_busy_until[:] = [0.0, 4.5, 4.5, 12.0, 7.5, 1e9, 3.0]
        for busy_until in router.output_busy_until:
            for time in (busy_until, busy_until - 1e-9, busy_until + 1e-9):
                expected = 0
                for out, end in enumerate(router.output_busy_until):
                    if end <= time:
                        expected |= 1 << out
                assert router._free_mask(time) == expected
        assert router._free_mask(float("-inf")) == 0
        assert router._free_mask(float("inf")) == 0b1111111


class TestWantedOutputsIndex:
    def test_drift_reports_a_corrupted_union_of_wanted_outputs(self):
        _, routers = build_network()
        router = routers[0]
        inject(router, Packet(PacketClass.REQUEST, source=0, destination=1))
        assert router._wanted_any == 1 << int(OutputPort.EAST)
        assert router.head_index_drift() == []
        router._wanted_any = 0  # nominate would now sleep on a ready head
        assert router.head_index_drift() == [
            "indexed outputs of all ports 0b0 but heads want 0b100"
        ]

    def test_union_follows_arrivals_and_departures(self):
        _, routers = build_network()
        router = routers[0]
        packet = Packet(PacketClass.REQUEST, source=0, destination=1)
        inject(router, packet)
        inject(router, Packet(PacketClass.BLOCK_RESPONSE, source=1, destination=0),
               port=InputPort.MC0)
        locals_mask = 1 << int(OutputPort.L0) | 1 << int(OutputPort.L1)
        assert router._wanted_any == 1 << int(OutputPort.EAST) | locals_mask
        launch = router.nominate(0.0, 0.0, fanout=1, nominations_per_port=1)
        router.resolve(3.0, launch)
        assert router._wanted_any == 0
        assert router.head_index_drift() == []


class TestEscapeVcProgression:
    def test_dateline_switches_to_vc1_on_wraparound(self):
        topology, routers = build_network(width=4, height=2)
        # Node 3 -> node 1: minimal route is 2 hops east, crossing the
        # wrap link from x=3 to x=0.  Block the adaptive channel so the
        # escape path is taken.
        adaptive = adaptive_channel(PacketClass.REQUEST)
        while routers[0].buffers[InputPort.WEST].can_reserve(adaptive):
            routers[0].buffers[InputPort.WEST].reserve(adaptive)
        packet = Packet(PacketClass.REQUEST, source=3, destination=1)
        inject(routers[3], packet)
        launch = routers[3].nominate(0.0, 3.0, fanout=2, nominations_per_port=2)
        (key,) = list(launch.plans)
        plan = launch.plans[key]
        assert plan.target_channel == escape_channel(PacketClass.REQUEST, 1), (
            "a hop across the wrap link must land on VC1"
        )
        dispatch = routers[3].resolve(3.0, launch)[0]
        assert dispatch.packet.escape_vc == 1
