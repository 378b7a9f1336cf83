"""Two-dimensional torus topology, as used by the 21364 network.

The Alpha 21364 connects up to 128 processors in a 2D torus (paper
section 2.1).  Nodes are dense integers; coordinates are ``(x, y)``
with x growing east and y growing north, and both dimensions wrap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Direction(enum.IntEnum):
    """The four torus directions; values match router port indices."""

    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]

    @property
    def dimension(self) -> int:
        """0 for east/west (x), 1 for north/south (y)."""
        return 0 if self in (Direction.EAST, Direction.WEST) else 1

    @property
    def positive(self) -> bool:
        """Whether the direction increases its coordinate."""
        return self in (Direction.EAST, Direction.NORTH)


_OPPOSITE = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}


@dataclass(frozen=True)
class Torus2D:
    """A ``width x height`` torus.

    The 21364 network scales to 128 processors; the paper evaluates
    4x4, 8x8 and (beyond the product's limit) 12x12 meshes of it.
    This class has no such cap -- the 128-node limit was a product
    constraint, not a topology one -- but :mod:`repro.sim.config`
    warns when modelling beyond the hardware's range.
    """

    width: int
    height: int
    #: lazily filled caches, owned by the instance so they die with it
    #: and two tori never share an entry (excluded from eq/repr).
    _routes: dict = field(default_factory=dict, compare=False, repr=False)
    _wrap_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("a torus needs at least 2 nodes per dimension")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coordinates(self, node: int) -> tuple[int, int]:
        """(x, y) of *node*."""
        self._check(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Node id at wrapped coordinates (x, y)."""
        return (x % self.width) + (y % self.height) * self.width

    def neighbor(self, node: int, direction: Direction) -> int:
        """The adjacent node in *direction* (always exists on a torus)."""
        x, y = self.coordinates(node)
        if direction is Direction.EAST:
            return self.node_at(x + 1, y)
        if direction is Direction.WEST:
            return self.node_at(x - 1, y)
        if direction is Direction.NORTH:
            return self.node_at(x, y + 1)
        return self.node_at(x, y - 1)

    def ring_offset(self, src: int, dst: int, dimension: int) -> int:
        """Signed minimal offset from *src* to *dst* along *dimension*.

        Positive means east (dimension 0) or north (dimension 1).  On
        an even-sized ring the half-way distance is reachable both
        ways; we resolve the tie toward the positive direction so the
        "minimal rectangle" is always well defined, matching the need
        for a deterministic route set in hardware.
        """
        size = self.width if dimension == 0 else self.height
        src_c = self.coordinates(src)[dimension]
        dst_c = self.coordinates(dst)[dimension]
        forward = (dst_c - src_c) % size
        if forward == 0:
            return 0
        backward = size - forward
        if forward < backward or forward == backward:
            return forward
        return -backward

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        return abs(self.ring_offset(src, dst, 0)) + abs(
            self.ring_offset(src, dst, 1)
        )

    def minimal_directions(self, src: int, dst: int) -> tuple[Direction, ...]:
        """Productive directions inside the minimal rectangle.

        At most two (one per dimension with remaining offset); empty
        when *src* equals *dst*.  This is the adaptive route set of the
        21364: packets adaptively pick among these at every hop.
        """
        self._check(src)
        self._check(dst)
        directions = []
        dx = self.ring_offset(src, dst, 0)
        if dx > 0:
            directions.append(Direction.EAST)
        elif dx < 0:
            directions.append(Direction.WEST)
        dy = self.ring_offset(src, dst, 1)
        if dy > 0:
            directions.append(Direction.NORTH)
        elif dy < 0:
            directions.append(Direction.SOUTH)
        return tuple(directions)

    def routes_from(self, node: int) -> list:
        """The route-table row of *node*: one slot per destination.

        Slots start as None; the routing layer's user (the router)
        stores what it derived for ``(node, destination)`` on first use
        and reads it back on every later hop, so routing functions run
        once per pair per torus instead of once per readiness test.
        """
        row = self._routes.get(node)
        if row is None:
            self._check(node)
            row = self._routes[node] = [None] * self.num_nodes
        return row

    def crosses_wraparound(self, node: int, direction: Direction) -> bool:
        """Whether the hop from *node* in *direction* uses a wrap link.

        Used by the escape channels' dateline rule: a packet switches
        from VC0 to VC1 when it crosses the wrap link of a ring, which
        breaks the ring's cyclic channel dependency (Duato/Dally).
        """
        cached = self._wrap_cache.get((node, direction))
        if cached is not None:
            return cached
        x, y = self.coordinates(node)
        if direction is Direction.EAST:
            result = x == self.width - 1
        elif direction is Direction.WEST:
            result = x == 0
        elif direction is Direction.NORTH:
            result = y == self.height - 1
        else:
            result = y == 0
        self._wrap_cache[(node, direction)] = result
        return result

    def average_distance(self) -> float:
        """Mean minimal distance over all ordered pairs (src != dst)."""
        total = 0
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                if src != dst:
                    total += self.distance(src, dst)
        return total / (self.num_nodes * (self.num_nodes - 1))

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside 0..{self.num_nodes - 1}")
