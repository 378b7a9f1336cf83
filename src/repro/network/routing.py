"""Routing functions: adaptive minimal-rectangle + dimension-order escape.

The 21364 routes packets adaptively within the *minimal rectangle*
(paper section 2.1): at every hop a packet may take any productive
direction, of which there are at most two.  Blocked packets fall into
the deadlock-free escape channels VC0/VC1, which follow strict
dimension-order (x then y) routing with a dateline VC switch per ring
-- Duato's theory makes the combination deadlock-free even though
virtual cut-through lets packets return to the adaptive channel.
"""

from __future__ import annotations

from repro.network.packets import Packet
from repro.network.topology import Direction, Torus2D


def adaptive_candidates(
    topology: Torus2D, current: int, destination: int
) -> tuple[Direction, ...]:
    """Productive directions for adaptive routing (at most two)."""
    return topology.minimal_directions(current, destination)


def dimension_order_direction(
    topology: Torus2D, current: int, destination: int
) -> Direction | None:
    """The single escape-route direction: finish x before starting y."""
    dx = topology.ring_offset(current, destination, 0)
    if dx > 0:
        return Direction.EAST
    if dx < 0:
        return Direction.WEST
    dy = topology.ring_offset(current, destination, 1)
    if dy > 0:
        return Direction.NORTH
    if dy < 0:
        return Direction.SOUTH
    return None


def escape_vc_after_hop(
    topology: Torus2D,
    packet: Packet,
    current: int,
    direction: Direction,
) -> int:
    """Escape VC the packet occupies after hopping from *current*.

    Dateline rule: a packet enters the escape network on VC0 and moves
    to VC1 when its hop crosses a ring's wrap-around link.  Because
    dimension-order routing visits each ring once, this breaks the
    cyclic dependency on every ring, so VC0/VC1 form a deadlock-free
    escape network (Dally's dateline argument).  When a packet turns
    from the x ring into the y ring it restarts on VC0 -- dimension
    order guarantees it never returns to x.
    """
    previous = packet.escape_vc if packet.escape_vc is not None else 0
    if packet.last_direction is not None and (
        packet.last_direction.dimension != direction.dimension
    ):
        previous = 0  # new ring, restart before its dateline
    if topology.crosses_wraparound(current, direction):
        return 1
    return previous


def is_productive(
    topology: Torus2D, current: int, destination: int, direction: Direction
) -> bool:
    """Whether a hop in *direction* stays inside the minimal rectangle."""
    return direction in topology.minimal_directions(current, destination)
