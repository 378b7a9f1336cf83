"""Shared value types for arbitration algorithms.

The arbitration core is deliberately abstract: it knows about *rows*
(input-port arbiters, i.e. read ports), *groups* (input ports, which may
own several rows), *outputs* (output-port arbiters) and *packets*.  It
does not know about flits, virtual channels or torus coordinates --
those belong to :mod:`repro.router` and :mod:`repro.network`.  This
split lets the standalone matching model (Figures 8 and 9) and the full
timing model (Figures 10 and 11) drive the exact same algorithm code.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence


class SourceKind(enum.Enum):
    """Where a nomination's packet entered the router.

    The Rotary Rule (paper section 3.4) prioritizes ``NETWORK`` traffic
    (packets already travelling between routers) over ``LOCAL`` traffic
    (packets freshly injected by the cache, memory controllers or I/O).
    """

    NETWORK = "network"
    LOCAL = "local"


class _NominationFields(NamedTuple):
    row: int
    packet: int
    outputs: tuple[int, ...]
    source: SourceKind = SourceKind.NETWORK
    age: int = 0
    group: int | None = None
    group_capacity: int = 1
    starving: bool = False


_tuple_new = tuple.__new__


class Nomination(_NominationFields):
    """A request presented to the arbitration algorithm.

    Attributes:
        row: index of the input-port arbiter (read port) making the
            nomination.  At most one grant is issued per row.
        packet: an opaque packet identity.  The same packet may appear
            in several nominations (PIM and WFA nominate a packet to up
            to two output ports); at most one grant is issued per
            packet.
        outputs: candidate output ports, in preference order.  SPAA
            nominations carry exactly one output; PIM/WFA/MCM
            nominations carry one or two (adaptive routing in the
            minimal rectangle allows at most two directions).
        source: whether the packet arrived from the network or from a
            local port, for Rotary-Rule prioritization.
        age: cycles the packet has been waiting; older wins ties where
            a policy consults age.
        group: index of the input *port* owning this row.  Used by MCM,
            which may be handed every waiting packet of a port rather
            than one pick per read port, together with
            ``group_capacity``.
        group_capacity: how many grants the group may receive in one
            arbitration (the 21364 has two read ports per input
            buffer).
        starving: set by the anti-starvation overlay for packets that
            exceeded the old-color threshold; starving packets outrank
            every prioritization policy, including the Rotary Rule.

    An immutable, hashable value at the cost of a tuple (DESIGN.md
    section 6): ``outputs`` is coerced to a tuple, and every way of
    building one -- the constructor, :meth:`_replace`, unpickling --
    runs the same two checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        row: int,
        packet: int,
        outputs: Iterable[int],
        source: SourceKind = SourceKind.NETWORK,
        age: int = 0,
        group: int | None = None,
        group_capacity: int = 1,
        starving: bool = False,
    ) -> Nomination:
        outputs = tuple(outputs)
        if len(outputs) > 1:
            if len(set(outputs)) != len(outputs):
                raise ValueError(f"duplicate outputs in nomination: {outputs}")
        elif not outputs:
            raise ValueError("a nomination needs at least one candidate output")
        return _tuple_new(
            cls, (row, packet, outputs, source, age, group, group_capacity, starving)
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> Nomination:
        # NamedTuple's own _make (behind _replace) skips __new__.
        return cls(*iterable)


class Grant(NamedTuple):
    """A single (row, packet, output) match produced by an arbiter."""

    row: int
    packet: int
    output: int


def validate_matching(
    nominations: Sequence[Nomination],
    grants: Sequence[Grant],
    free_outputs: frozenset[int] | None = None,
) -> None:
    """Raise ``ValueError`` unless *grants* is a legal matching.

    A legal matching grants each row, packet and output at most once,
    grants only nominated (row, packet, output) combinations, respects
    group capacities and only uses free outputs.  Every arbiter in this
    package satisfies these invariants; the checker exists for tests
    and for validating third-party arbiters plugged into the models.
    """
    by_key = {(n.row, n.packet): n for n in nominations}
    rows_seen: set[int] = set()
    packets_seen: set[int] = set()
    outputs_seen: set[int] = set()
    group_counts: dict[int, int] = {}
    for grant in grants:
        nom = by_key.get((grant.row, grant.packet))
        if nom is None:
            raise ValueError(f"grant {grant} does not correspond to a nomination")
        if grant.output not in nom.outputs:
            raise ValueError(f"grant {grant} uses an output the packet cannot take")
        if free_outputs is not None and grant.output not in free_outputs:
            raise ValueError(f"grant {grant} uses a busy output")
        if grant.row in rows_seen:
            raise ValueError(f"row {grant.row} granted twice")
        if grant.packet in packets_seen:
            raise ValueError(f"packet {grant.packet} granted twice")
        if grant.output in outputs_seen:
            raise ValueError(f"output {grant.output} granted twice")
        rows_seen.add(grant.row)
        packets_seen.add(grant.packet)
        outputs_seen.add(grant.output)
        if nom.group is not None:
            group_counts[nom.group] = group_counts.get(nom.group, 0) + 1
            if group_counts[nom.group] > nom.group_capacity:
                raise ValueError(
                    f"group {nom.group} exceeded its capacity "
                    f"{nom.group_capacity}"
                )
