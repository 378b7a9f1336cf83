"""The 21364 router model used by the timing simulator.

A :class:`Router` owns the per-input-port buffers, the output-port busy
state, the 16 read-port input arbiters (the LA pipeline stage) and one
arbitration-algorithm instance (the GA stage).  The timing simulator
drives it with two calls per arbitration *launch*:

* :meth:`nominate` at cycle ``t`` builds the launch's nominations --
  each read-port arbiter picks the oldest packet from its
  least-recently-selected virtual channel that passes the readiness
  tests (connected output, output predicted free at grant time,
  downstream buffer space) -- and marks those packets in flight.
* :meth:`resolve` at cycle ``t + latency`` re-checks readiness (the
  speculation window: a pipelined SPAA launch may discover its output
  was just taken), runs the arbitration algorithm, applies the grants
  (buffer departure, output busy time, downstream reservation) and
  releases the losers for re-nomination.

Everything timing related (when launches happen, event scheduling) and
everything recorded about a launch (telemetry) is the simulator's job;
the router is purely reactive.

Launches far outnumber packet movements (beyond saturation three in
four nominate nothing), so :meth:`nominate` reads a *nomination index*
instead of scanning buffers: for every input port, the head packet of
each occupied channel with the bitmask of outputs that head could use.
The buffers report arrivals and departures (:meth:`InputBuffer.watch`),
which is the only time a head -- and so the index -- can change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.core.antistarvation import AntiStarvationTracker
from repro.core.base import Arbiter
from repro.core.types import Grant, Nomination, SourceKind
from repro.network.channels import (
    NUM_CHANNELS,
    BufferPlan,
    ChannelKind,
    VirtualChannel,
    adaptive_channel,
    all_virtual_channels,
    escape_channel,
)
from repro.network.packets import Packet
from repro.network.routing import (
    adaptive_candidates,
    dimension_order_direction,
    escape_vc_after_hop,
)
from repro.network.topology import Direction, Torus2D
from repro.router.buffers import InputBuffer
from repro.router.connection_matrix import ConnectionMatrix
from repro.router.ports import (
    InputPort,
    NUM_INPUT_PORTS,
    NUM_OUTPUT_PORTS,
    NUM_ROWS,
    OutputPort,
    READ_PORTS_PER_INPUT,
    TORUS_OUTPUTS,
)

_CHANNELS = all_virtual_channels()
_INPUT_PORTS = tuple(InputPort)
_OUTPUT_PORTS = tuple(OutputPort)
#: torus output index == direction value
_DIRECTIONS = tuple(Direction)
_NUM_TORUS_PORTS = len(TORUS_OUTPUTS)
#: where a packet sinks when it does not name its own local outputs
_DEFAULT_SINKS = (int(OutputPort.L0), int(OutputPort.L1))
#: never-selected channels rank oldest, in channel order: they start on
#: distinct stamps below the first real one (the LRS clock starts at 1).
_UNSELECTED_STAMPS = tuple(range(-NUM_CHANNELS, 0))
#: one input port's rows, as a mask shifted down to its first row
_PORT_ROWS = (1 << READ_PORTS_PER_INPUT) - 1
#: the arbiters' ``free_outputs`` for every free-output mask
_FREE_OUTPUT_SETS = tuple(
    frozenset(out for out in range(NUM_OUTPUT_PORTS) if mask >> out & 1)
    for mask in range(1 << NUM_OUTPUT_PORTS)
)


def _sinks(packet: Packet) -> tuple[int, ...]:
    """Local outputs a packet may sink through at its destination."""
    sinks = packet.sink_outputs
    return _DEFAULT_SINKS if sinks is None else sinks


@dataclass(slots=True)
class HopPlan:
    """Bookkeeping for one nominated (packet, output) candidate."""

    packet: Packet
    in_port: InputPort
    from_channel: VirtualChannel
    output: OutputPort
    #: channel at the downstream router (None when sinking locally)
    target_channel: VirtualChannel | None
    direction: Direction | None


@dataclass(slots=True)
class Launch:
    """One in-flight arbitration: nominations plus their hop plans."""

    time: float
    nominations: list[Nomination]
    plans: dict[tuple[int, int, int], HopPlan]
    #: nominations whose outputs were taken between nominate and
    #: resolve -- the pipelined speculation window in action; set by
    #: :meth:`Router.resolve`
    dropped: int = 0


@dataclass(slots=True)
class Dispatch:
    """A granted packet leaving the router; consumed by the simulator."""

    packet: Packet
    plan: HopPlan
    #: the read port (row) whose nomination won
    row: int
    grant_time: float
    service_cycles: float


class Router:
    """One 21364 router inside the timing model."""

    #: the one seam between the arbitration algorithm and grant
    #: application: when set, called as ``filter(router, launch, live,
    #: grants, now) -> grants`` with the pass's classified nominations
    #: and the algorithm's grants.  The simulator installs its pass
    #: recorder and the fault injector here.  Packets whose grants are
    #: filtered out are released exactly like arbitration losers, so
    #: flow control stays consistent.
    grant_filter = None

    def __init__(
        self,
        node: int,
        topology: Torus2D,
        arbiter: Arbiter,
        buffer_plan: BufferPlan,
        matrix: ConnectionMatrix,
        antistarvation: AntiStarvationTracker,
        rng: random.Random,
        torus_cycles_per_flit: float = 1.5,
        local_cycles_per_flit: float = 1.0,
    ) -> None:
        self.node = node
        self.topology = topology
        self.arbiter = arbiter
        self.matrix = matrix
        self.antistarvation = antistarvation
        self.rng = rng
        self.torus_cycles_per_flit = torus_cycles_per_flit
        self.local_cycles_per_flit = local_cycles_per_flit
        #: wire-delay cycles between the grant decision and the packet
        #: reaching the output (PIM1/WFA's pipelined fourth cycle);
        #: set by the simulator from the algorithm's timing.
        self.output_tail_cycles = 0.0

        self.buffers: dict[InputPort, InputBuffer] = {
            port: InputBuffer(buffer_plan) for port in InputPort
        }
        self.output_busy_until = [0.0] * NUM_OUTPUT_PORTS
        #: downstream wiring, filled in by the simulator:
        #: torus output -> (neighbor router, neighbor's input port)
        self.downstream: dict[OutputPort, tuple["Router", InputPort]] = {}
        self._in_flight: set[int] = set()
        #: bit ``row`` is set while that row's nomination is unresolved
        #: -- SPAA's "small list of in-flight packets, only 16": each
        #: input-port arbiter keeps at most one nomination outstanding
        #: until its Reset step.
        self._rows_in_flight = 0
        #: per-row least-recently-selected stamp of every channel, by
        #: channel index; a selection takes the next tick of the clock.
        self._vc_stamp = [list(_UNSELECTED_STAMPS) for _ in range(NUM_ROWS)]
        self._vc_clock = 0
        #: per-row rotation for picking one of two adaptive outputs
        self._output_toggle = [0] * NUM_ROWS
        #: launch gating, managed by the simulator
        self.last_launch_time = float("-inf")
        self.launch_scheduled_at: float | None = None

        #: outputs wired to each row, as a bitmask
        self._row_outputs = [0] * NUM_ROWS
        for row, output in matrix.cells:
            self._row_outputs[row] |= 1 << output
        #: this node's row of the torus' lazily filled route table
        self._routes = topology.routes_from(node)
        #: the nomination index, whose invariant head_index_drift
        #: checks: per input port, the index of every occupied channel
        #: -> (its head packet, the outputs that packet could leave by)
        self._heads: list[dict[int, tuple[Packet, int]]] = [
            {} for _ in range(NUM_INPUT_PORTS)
        ]
        #: per input port, the union of its heads' output masks
        self._wanted = [0] * NUM_INPUT_PORTS
        #: the union of those: outputs any buffered head could leave by
        self._wanted_any = 0
        #: packets in all eight buffers
        self._buffered = 0
        for port, buffer in self.buffers.items():
            buffer.watch(partial(self._buffer_changed, int(port)))

    # -- the nomination index ------------------------------------------

    def _route(
        self, destination: int
    ) -> tuple[int, tuple[Direction, ...], Direction | None]:
        """(productive outputs, adaptive directions, escape direction).

        Torus output index == direction value, so a direction doubles
        as its output's bit position.
        """
        route = self._routes[destination]
        if route is None:
            adaptive = adaptive_candidates(self.topology, self.node, destination)
            escape = dimension_order_direction(
                self.topology, self.node, destination
            )
            outputs = 0
            for direction in adaptive:
                outputs |= 1 << direction
            route = self._routes[destination] = (outputs, adaptive, escape)
        return route

    def _productive_outputs(self, port: int, packet: Packet) -> int:
        """Outputs *packet*, waiting at input *port*, could ever leave by.

        Routing only: whether they are busy, wired to a given row or
        backed by buffer space downstream is tested at each launch.
        """
        if packet.destination == self.node:
            outputs = 0
            for output in _sinks(packet):
                outputs |= 1 << output
            return outputs
        outputs, _, escape = self._route(packet.destination)
        if not packet.pclass.adaptive_allowed:
            outputs = 1 << escape
        if port < _NUM_TORUS_PORTS:
            # A packet arriving at torus input port P came from the
            # neighbor in direction P; leaving via output P would
            # reverse, which minimal-rectangle routing never does.
            outputs &= ~(1 << port)
        return outputs

    def _buffer_changed(
        self, port: int, channel: int, delta: int, head: Packet | None
    ) -> None:
        """One packet entered or left *channel* of input *port*."""
        self._buffered += delta
        heads = self._heads[port]
        if head is None:
            del heads[channel]
        else:
            known = heads.get(channel)
            if known is not None and known[0] is head:
                return  # queued behind the same head
            heads[channel] = (head, self._productive_outputs(port, head))
        wanted = 0
        for _, outputs in heads.values():
            wanted |= outputs
        if wanted != self._wanted[port]:
            self._wanted[port] = wanted
            wanted_any = 0
            for of_port in self._wanted:
                wanted_any |= of_port
            self._wanted_any = wanted_any

    def head_index_drift(self) -> list[str]:
        """Where the nomination index disagrees with the buffers.

        Rebuilds the index from the queues and compares; empty when the
        invariant holds.  For the invariant checker and tests -- the
        arbitration path never needs it.
        """
        drift = []
        buffered = 0
        wanted_any = 0
        for port, buffer in self.buffers.items():
            buffered += buffer.occupancy()
            heads = {}
            wanted = 0
            for channel in buffer.channels_with_waiting():
                head = buffer.head(channel)
                outputs = self._productive_outputs(int(port), head)
                heads[channel.index] = (head, outputs)
                wanted |= outputs
            wanted_any |= wanted
            if heads != self._heads[port]:
                drift.append(
                    f"{port.name}: indexed heads {self._heads[port]} "
                    f"but buffered heads {heads}"
                )
            if wanted != self._wanted[port]:
                drift.append(
                    f"{port.name}: indexed outputs {self._wanted[port]:#b} "
                    f"but heads want {wanted:#b}"
                )
        if wanted_any != self._wanted_any:
            drift.append(
                f"indexed outputs of all ports {self._wanted_any:#b} "
                f"but heads want {wanted_any:#b}"
            )
        if buffered != self._buffered:
            drift.append(
                f"counted {self._buffered} packets but buffers hold {buffered}"
            )
        return drift

    # -- nomination (the LA stage) -------------------------------------

    def _free_mask(self, time: float) -> int:
        """The outputs whose busy window has ended by *time*, as a mask."""
        b0, b1, b2, b3, b4, b5, b6 = self.output_busy_until
        return (
            (1 if b0 <= time else 0)
            | (2 if b1 <= time else 0)
            | (4 if b2 <= time else 0)
            | (8 if b3 <= time else 0)
            | (16 if b4 <= time else 0)
            | (32 if b5 <= time else 0)
            | (64 if b6 <= time else 0)
        )

    def nominate(
        self,
        now: float,
        resolve_time: float,
        fanout: int,
        nominations_per_port: int = READ_PORTS_PER_INPUT,
    ) -> Launch | None:
        """Build one arbitration launch; None when nothing is ready."""
        if not self._buffered:
            return None
        free = self._free_mask(resolve_time)
        if not self._wanted_any & free:
            return None
        nominations: list[Nomination] = []
        plans: dict[tuple[int, int, int], HopPlan] = {}
        row_outputs = self._row_outputs
        for port, wanted in enumerate(self._wanted):
            wanted &= free
            if not wanted:
                continue
            port_nominations = 0
            first_row = port * READ_PORTS_PER_INPUT
            if self._rows_in_flight >> first_row & _PORT_ROWS == _PORT_ROWS:
                continue  # both read ports are waiting for their resolve
            for row in range(first_row, first_row + READ_PORTS_PER_INPUT):
                if port_nominations >= nominations_per_port:
                    break
                if self._rows_in_flight >> row & 1:
                    # Each read-port arbiter keeps at most one
                    # nomination outstanding (SPAA's Reset step); with
                    # one nomination per port per launch the pair
                    # alternates read ports across launches, giving the
                    # paper's 16-entry in-flight list.
                    continue
                reachable = wanted & row_outputs[row]
                if not reachable:
                    continue
                picked = self._pick_for_row(row, port, reachable, fanout)
                if picked is None:
                    continue
                packet, channel, hops = picked
                nominations.append(
                    Nomination(
                        row=row,
                        packet=packet.uid,
                        outputs=tuple(output for output, _ in hops),
                        source=(
                            SourceKind.NETWORK
                            if port < _NUM_TORUS_PORTS
                            else SourceKind.LOCAL
                        ),
                        age=max(0, int(now - packet.waiting_since)),
                        group=port,
                        group_capacity=READ_PORTS_PER_INPUT,
                    )
                )
                for output, target in hops:
                    plans[(row, packet.uid, output)] = HopPlan(
                        packet=packet,
                        in_port=_INPUT_PORTS[port],
                        from_channel=_CHANNELS[channel],
                        output=_OUTPUT_PORTS[output],
                        target_channel=target,
                        direction=None if target is None else _DIRECTIONS[output],
                    )
                self._in_flight.add(packet.uid)
                self._rows_in_flight |= 1 << row
                self._vc_clock += 1
                self._vc_stamp[row][channel] = self._vc_clock
                port_nominations += 1
        if not nominations:
            return None
        return Launch(time=now, nominations=nominations, plans=plans)

    def _pick_for_row(
        self, row: int, port: int, reachable: int, fanout: int
    ) -> tuple[Packet, int, list[tuple[int, VirtualChannel | None]]] | None:
        """The read-port arbiter: oldest packet from the LRS channel.

        *reachable* is the free outputs wired to *row* that some head
        of *port* wants; only channels whose head wants one of them can
        pass the readiness tests, and they are tried in LRS order.
        """
        heads = self._heads[port]
        channels = [
            channel
            for channel, (_, outputs) in heads.items()
            if outputs & reachable
        ]
        if len(channels) > 1:
            channels.sort(key=self._vc_stamp[row].__getitem__)
        for channel in channels:
            packet, outputs = heads[channel]
            if packet.uid in self._in_flight:
                continue
            hops = self._ready_hops(packet, outputs & reachable)
            if not hops:
                continue
            if fanout == 1 and len(hops) > 1:
                # SPAA commits to a single output; rotate the choice so
                # both adaptive directions get exercised over time.
                toggle = self._output_toggle[row]
                hops = [hops[toggle % len(hops)]]
                self._output_toggle[row] = toggle + 1
            else:
                hops = hops[:fanout]
            return packet, channel, hops
        return None

    # -- readiness tests ------------------------------------------------

    def _ready_hops(
        self, packet: Packet, ready: int
    ) -> list[tuple[int, VirtualChannel | None]]:
        """(output, downstream channel) candidates of one head packet.

        *ready* holds the outputs the packet could use that are free at
        resolve time and wired to the asking row; what is left to test
        is buffer space downstream.
        """
        if packet.destination == self.node:
            return [
                (output, None) for output in _sinks(packet) if ready >> output & 1
            ]
        _, adaptive, escape = self._routes[packet.destination]
        pclass = packet.pclass
        downstream = self.downstream
        if pclass.adaptive_allowed:
            target = adaptive_channel(pclass)
            hops = []
            for direction in adaptive:
                if ready >> direction & 1:
                    neighbor, in_port = downstream[direction]
                    if neighbor.buffers[in_port].can_reserve(target):
                        hops.append((int(direction), target))
            if hops:
                return hops
        # Blocked adaptively (or I/O-class): try the escape network.
        if not ready >> escape & 1:
            return []
        target = escape_channel(
            pclass, escape_vc_after_hop(self.topology, packet, self.node, escape)
        )
        neighbor, in_port = downstream[escape]
        if neighbor.buffers[in_port].can_reserve(target):
            return [(int(escape), target)]
        return []

    def _downstream_buffer(self, output: int) -> InputBuffer:
        neighbor, in_port = self.downstream[output]
        return neighbor.buffers[in_port]

    # -- resolution (the GA stage) ---------------------------------------

    def resolve(self, now: float, launch: Launch) -> list[Dispatch]:
        """Run the arbitration algorithm and apply its grants."""
        live: list[Nomination] = []
        speculation_drops = 0
        free = self._free_mask(now)  # grants are applied after the loop
        plans = launch.plans
        for nom in launch.nominations:
            outputs = nom.outputs
            if len(outputs) > 1:
                outputs = tuple(
                    out
                    for out in outputs
                    if self._still_ready(plans[(nom.row, nom.packet, out)], free)
                )
            elif not self._still_ready(
                plans[(nom.row, nom.packet, outputs[0])], free
            ):
                outputs = ()
            self._rows_in_flight &= ~(1 << nom.row)
            if outputs:
                if outputs != nom.outputs:
                    nom = nom._replace(outputs=outputs)
                live.append(nom)
            else:
                speculation_drops += 1
                self._in_flight.discard(nom.packet)
        launch.dropped = speculation_drops
        if not live:
            return []

        live = self.antistarvation.classify(live, now)
        grants = self.arbiter.arbitrate(live, _FREE_OUTPUT_SETS[free])
        if self.grant_filter is not None:
            grants = self.grant_filter(self, launch, live, grants, now)
        granted = {nom_key for nom_key in ((g.row, g.packet) for g in grants)}
        for nom in live:
            if (nom.row, nom.packet) not in granted:
                self._in_flight.discard(nom.packet)
        return [self._apply_grant(grant, launch, now) for grant in grants]

    def upstream_node(self, port: InputPort) -> int:
        """The neighbor feeding a torus input port."""
        if not port.is_network:
            raise ValueError(f"{port.name} has no upstream router")
        return self.topology.neighbor(self.node, port.direction)

    def plan_is_ready(self, plan: HopPlan, now: float) -> bool:
        """Public readiness probe (used by the fault injector's
        mis-routing, which must not redirect onto a busy output or a
        full downstream buffer)."""
        return self._still_ready(plan, self._free_mask(now))

    def _still_ready(self, plan: HopPlan, free: int) -> bool:
        """*free* is the mask of outputs free at the time of asking."""
        if not free >> plan.output & 1:
            return False
        if plan.target_channel is None:
            return True
        return self._downstream_buffer(plan.output).can_reserve(plan.target_channel)

    def _apply_grant(self, grant: Grant, launch: Launch, now: float) -> Dispatch:
        plan = launch.plans[(grant.row, grant.packet, grant.output)]
        packet = plan.packet
        self.buffers[plan.in_port].remove(packet, plan.from_channel)
        self._in_flight.discard(packet.uid)
        if plan.target_channel is None:
            cycles_per_flit = self.local_cycles_per_flit
        else:
            cycles_per_flit = self.torus_cycles_per_flit
            self._downstream_buffer(plan.output).reserve(plan.target_channel)
            packet.last_direction = plan.direction
            packet.escape_vc = (
                None
                if plan.target_channel.kind is ChannelKind.ADAPTIVE
                else (0 if plan.target_channel.kind is ChannelKind.VC0 else 1)
            )
            packet.hops += 1
        service = packet.flits * cycles_per_flit
        self.output_busy_until[int(plan.output)] = (
            now + self.output_tail_cycles + service
        )
        return Dispatch(
            packet=packet,
            plan=plan,
            row=grant.row,
            grant_time=now,
            service_cycles=service,
        )

    def reset_arbitration_state(self) -> None:
        """Clear dynamic state (tests and back-to-back simulations)."""
        self.arbiter.reset()
        self.antistarvation.reset()
        self._in_flight.clear()
        self._rows_in_flight = 0
        self._vc_stamp = [list(_UNSELECTED_STAMPS) for _ in range(NUM_ROWS)]
        self._vc_clock = 0
        self._output_toggle = [0] * NUM_ROWS
        self.last_launch_time = float("-inf")
        self.launch_scheduled_at = None

    # -- introspection -----------------------------------------------------

    def total_buffered(self) -> int:
        return self._buffered

