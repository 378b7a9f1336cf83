"""Unit and property tests for the 2D torus topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import Direction, Torus2D


torus_strategy = st.builds(
    Torus2D,
    width=st.integers(min_value=2, max_value=12),
    height=st.integers(min_value=2, max_value=12),
)


class TestBasics:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            Torus2D(1, 4)
        with pytest.raises(ValueError):
            Torus2D(4, 0)

    def test_node_count(self):
        assert Torus2D(4, 4).num_nodes == 16
        assert Torus2D(8, 8).num_nodes == 64
        assert Torus2D(12, 12).num_nodes == 144

    def test_coordinates_roundtrip(self):
        torus = Torus2D(4, 3)
        for node in range(torus.num_nodes):
            x, y = torus.coordinates(node)
            assert torus.node_at(x, y) == node

    def test_out_of_range_node_rejected(self):
        torus = Torus2D(4, 4)
        with pytest.raises(ValueError):
            torus.coordinates(16)
        with pytest.raises(ValueError):
            torus.neighbor(-1, Direction.NORTH)

    def test_wraparound_neighbors(self):
        torus = Torus2D(4, 4)
        # Node 3 is at (3, 0): east wraps to (0, 0) = node 0.
        assert torus.neighbor(3, Direction.EAST) == 0
        # Node 0 at (0, 0): west wraps to (3, 0), south wraps to (0, 3).
        assert torus.neighbor(0, Direction.WEST) == 3
        assert torus.neighbor(0, Direction.SOUTH) == 12
        assert torus.neighbor(0, Direction.NORTH) == 4

    def test_direction_properties(self):
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.EAST.opposite is Direction.WEST
        assert Direction.EAST.dimension == 0
        assert Direction.NORTH.dimension == 1
        assert Direction.EAST.positive and Direction.NORTH.positive
        assert not Direction.WEST.positive


class TestDistancesAndRouting:
    def test_ring_offset_shortest_way(self):
        torus = Torus2D(8, 8)
        # (0,0) -> (6,0): going west (-2) is shorter than east (+6).
        assert torus.ring_offset(0, 6, 0) == -2
        assert torus.ring_offset(0, 2, 0) == 2

    def test_half_ring_tie_resolves_positive(self):
        torus = Torus2D(8, 8)
        assert torus.ring_offset(0, 4, 0) == 4

    def test_distance_examples(self):
        torus = Torus2D(4, 4)
        assert torus.distance(0, 0) == 0
        assert torus.distance(0, 3) == 1  # wraparound
        assert torus.distance(0, 5) == 2
        assert torus.distance(0, 10) == 4  # (2,2): max distance in 4x4

    def test_minimal_directions_empty_at_destination(self):
        torus = Torus2D(4, 4)
        assert torus.minimal_directions(5, 5) == ()

    def test_minimal_directions_single_dimension(self):
        torus = Torus2D(4, 4)
        assert torus.minimal_directions(0, 1) == (Direction.EAST,)
        assert torus.minimal_directions(1, 0) == (Direction.WEST,)
        assert torus.minimal_directions(0, 4) == (Direction.NORTH,)

    def test_minimal_directions_diagonal_gives_two(self):
        torus = Torus2D(4, 4)
        directions = torus.minimal_directions(0, 5)
        assert set(directions) == {Direction.EAST, Direction.NORTH}

    def test_crosses_wraparound(self):
        torus = Torus2D(4, 4)
        assert torus.crosses_wraparound(3, Direction.EAST)
        assert not torus.crosses_wraparound(2, Direction.EAST)
        assert torus.crosses_wraparound(0, Direction.WEST)
        assert torus.crosses_wraparound(12, Direction.NORTH)
        assert torus.crosses_wraparound(0, Direction.SOUTH)

    def test_route_table_rows_belong_to_one_torus(self):
        torus, twin = Torus2D(4, 4), Torus2D(4, 4)
        row = torus.routes_from(5)
        assert row == [None] * 16
        row[9] = "whatever the router derived"
        assert torus.routes_from(5) is row
        assert twin.routes_from(5) == [None] * 16
        assert torus == twin, "the table is not part of a torus' value"
        with pytest.raises(ValueError):
            torus.routes_from(16)

    def test_average_distance_4x4(self):
        # Ring of 4: per-dimension mean over all pairs = (0+1+1+2)/4 = 1;
        # excluding self inflates slightly: 32/15.
        assert Torus2D(4, 4).average_distance() == pytest.approx(32 / 15)


class TestTorusProperties:
    @settings(max_examples=60, deadline=None)
    @given(torus=torus_strategy, data=st.data())
    def test_neighbor_is_inverse_of_opposite(self, torus, data):
        node = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        direction = data.draw(st.sampled_from(list(Direction)))
        neighbor = torus.neighbor(node, direction)
        assert torus.neighbor(neighbor, direction.opposite) == node

    @settings(max_examples=60, deadline=None)
    @given(torus=torus_strategy, data=st.data())
    def test_distance_is_symmetric_on_odd_rings(self, torus, data):
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        assert torus.distance(src, dst) == torus.distance(dst, src)

    @settings(max_examples=60, deadline=None)
    @given(torus=torus_strategy, data=st.data())
    def test_minimal_directions_reduce_distance(self, torus, data):
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        for direction in torus.minimal_directions(src, dst):
            next_node = torus.neighbor(src, direction)
            assert torus.distance(next_node, dst) == torus.distance(src, dst) - 1

    @settings(max_examples=60, deadline=None)
    @given(torus=torus_strategy, data=st.data())
    def test_distance_bounded_by_half_perimeter(self, torus, data):
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        assert torus.distance(src, dst) <= torus.width // 2 + torus.height // 2

    @settings(max_examples=60, deadline=None)
    @given(torus=torus_strategy, data=st.data())
    def test_following_minimal_directions_reaches_destination(self, torus, data):
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        current = src
        for _ in range(torus.width + torus.height):
            directions = torus.minimal_directions(current, dst)
            if not directions:
                break
            current = torus.neighbor(current, directions[0])
        assert current == dst
