"""Unit and property tests for routing: adaptive, escape, datelines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packets import Packet, PacketClass
from repro.network.routing import (
    adaptive_candidates,
    dimension_order_direction,
    escape_vc_after_hop,
    is_productive,
)
from repro.network.topology import Direction, Torus2D


def torus_and_pair():
    return st.tuples(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=10),
        st.data(),
    )


class TestAdaptiveCandidates:
    def test_at_most_two_directions(self):
        torus = Torus2D(8, 8)
        for src in range(torus.num_nodes):
            for dst in range(torus.num_nodes):
                assert len(adaptive_candidates(torus, src, dst)) <= 2

    def test_empty_at_destination(self):
        torus = Torus2D(4, 4)
        assert adaptive_candidates(torus, 5, 5) == ()

    def test_all_candidates_are_productive(self):
        torus = Torus2D(6, 4)
        for src in range(torus.num_nodes):
            for dst in range(torus.num_nodes):
                for direction in adaptive_candidates(torus, src, dst):
                    assert is_productive(torus, src, dst, direction)


class TestDimensionOrder:
    def test_x_before_y(self):
        torus = Torus2D(4, 4)
        # 0 -> 5 needs one hop east and one north; x goes first.
        assert dimension_order_direction(torus, 0, 5) is Direction.EAST
        # After the x hop, y remains.
        assert dimension_order_direction(torus, 1, 5) is Direction.NORTH

    def test_none_at_destination(self):
        torus = Torus2D(4, 4)
        assert dimension_order_direction(torus, 3, 3) is None

    def test_answer_belongs_to_the_torus_asked_not_to_one_freed_earlier(self):
        """A cache keyed by ``id(topology)`` served the 8-wide answer to
        a 16-wide torus that CPython had given the freed torus' id."""
        for _ in range(200):
            small = Torus2D(8, 8)
            assert dimension_order_direction(small, 0, 5) is Direction.WEST
            del small
            large = Torus2D(16, 16)
            assert dimension_order_direction(large, 0, 5) is Direction.EAST
            del large

    def test_escape_route_always_reaches_destination(self):
        torus = Torus2D(5, 3)
        for src in range(torus.num_nodes):
            for dst in range(torus.num_nodes):
                current = src
                for _ in range(torus.width + torus.height):
                    direction = dimension_order_direction(torus, current, dst)
                    if direction is None:
                        break
                    current = torus.neighbor(current, direction)
                assert current == dst

    def test_escape_direction_is_minimal(self):
        torus = Torus2D(6, 6)
        for src in range(torus.num_nodes):
            for dst in range(torus.num_nodes):
                direction = dimension_order_direction(torus, src, dst)
                if direction is not None:
                    assert direction in torus.minimal_directions(src, dst)


class TestEscapeVcDateline:
    def packet(self) -> Packet:
        return Packet(PacketClass.REQUEST, source=0, destination=3)

    def test_starts_on_vc0(self):
        torus = Torus2D(4, 4)
        packet = self.packet()
        # Hop east from node 1 (no wrap): stays on VC0.
        assert escape_vc_after_hop(torus, packet, 1, Direction.EAST) == 0

    def test_wrap_hop_switches_to_vc1(self):
        torus = Torus2D(4, 4)
        packet = self.packet()
        assert escape_vc_after_hop(torus, packet, 3, Direction.EAST) == 1

    def test_stays_on_vc1_within_the_ring(self):
        torus = Torus2D(4, 4)
        packet = self.packet()
        packet.escape_vc = 1
        packet.last_direction = Direction.EAST
        assert escape_vc_after_hop(torus, packet, 0, Direction.EAST) == 1

    def test_turning_into_a_new_ring_restarts_on_vc0(self):
        torus = Torus2D(4, 4)
        packet = self.packet()
        packet.escape_vc = 1
        packet.last_direction = Direction.EAST
        # Turning north (new dimension) before any y wrap: VC0.
        assert escape_vc_after_hop(torus, packet, 1, Direction.NORTH) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=8),
        height=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    def test_dimension_order_escape_crosses_at_most_one_dateline_per_ring(
        self, width, height, data
    ):
        """The deadlock-freedom argument: along a dimension-order route
        the VC sequence per ring is VC0* then VC1* (one switch max)."""
        torus = Torus2D(width, height)
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        packet = Packet(PacketClass.REQUEST, source=src, destination=dst)
        current = src
        per_ring_sequence: dict[int, list[int]] = {0: [], 1: []}
        for _ in range(width + height):
            direction = dimension_order_direction(torus, current, dst)
            if direction is None:
                break
            vc = escape_vc_after_hop(torus, packet, current, direction)
            per_ring_sequence[direction.dimension].append(vc)
            packet.escape_vc = vc
            packet.last_direction = direction
            current = torus.neighbor(current, direction)
        assert current == dst
        for sequence in per_ring_sequence.values():
            # Non-decreasing: once on VC1, never back to VC0 in-ring.
            assert sequence == sorted(sequence)
