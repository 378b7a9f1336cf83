"""Per-input-port packet buffering with virtual-channel partitions.

The 21364 provides buffer space for 316 packets per input port to
support virtual cut-through routing (a blocked packet is buffered
whole).  Buffers are partitioned by virtual channel so a lower-priority
coherence class can never block a higher one, and the escape channels
VC0/VC1 keep their own (tiny) partitions.

Space is reserved upstream at grant time and committed on arrival --
the credit-based flow control of the hardware, modelled with immediate
credit visibility (the simulator can read the downstream buffer
directly; the few-cycle credit-return delay is folded into the
pin-to-pin latency constant).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.network.channels import (
    BufferPlan,
    VirtualChannel,
    all_virtual_channels,
)
from repro.network.packets import Packet

_CHANNELS = all_virtual_channels()


class InputBuffer:
    """Buffering for one input port: a FIFO per virtual channel.

    Per-channel state lives in lists addressed by
    :attr:`VirtualChannel.index`; no channel is ever hashed.
    """

    def __init__(self, plan: BufferPlan) -> None:
        self._plan = plan
        self._capacity = plan.capacities
        self._queues: list[deque[Packet]] = [deque() for _ in _CHANNELS]
        self._reserved = [0] * len(_CHANNELS)
        self._count = 0
        self._watcher: Callable[[int, int, Packet | None], None] | None = None

    def watch(self, watcher: Callable[[int, int, Packet | None], None]) -> None:
        """Report every arrival and departure to *watcher*.

        Called after the buffer has changed as ``watcher(index, delta,
        head)``: the channel's index, +1 or -1 packets, and the packet
        now at the channel's head (None once it drains).  The owning
        router keeps its nomination index current from these reports,
        so arbitration never has to walk the queues to learn what
        changed.
        """
        self._watcher = watcher

    # -- capacity ----------------------------------------------------

    def capacity(self, channel: VirtualChannel) -> int:
        return self._capacity[channel.index]

    def free_slots(self, channel: VirtualChannel) -> int:
        """Slots neither occupied nor promised to an in-flight packet."""
        index = channel.index
        return (
            self._capacity[index]
            - len(self._queues[index])
            - self._reserved[index]
        )

    def can_reserve(self, channel: VirtualChannel) -> bool:
        return self.free_slots(channel) > 0

    def reserve(self, channel: VirtualChannel) -> None:
        """Promise one slot to a packet granted upstream."""
        if not self.can_reserve(channel):
            raise BufferOverflowError(f"no free slot in {channel}")
        self._reserved[channel.index] += 1

    def cancel_reservation(self, channel: VirtualChannel) -> None:
        if self._reserved[channel.index] <= 0:
            raise ValueError(f"no reservation to cancel on {channel}")
        self._reserved[channel.index] -= 1

    # -- occupancy ---------------------------------------------------

    def commit(self, packet: Packet, channel: VirtualChannel) -> None:
        """Arrival: turn a reservation into an occupied slot."""
        index = channel.index
        if self._reserved[index] <= 0:
            raise ValueError(f"arrival without reservation on {channel}")
        self._reserved[index] -= 1
        self._enqueue(packet, index)

    def inject(self, packet: Packet, channel: VirtualChannel) -> bool:
        """Local-port enqueue without a prior reservation.

        Returns False (and leaves the buffer unchanged) when the
        channel is full -- the caller holds the packet and retries,
        which is how injection back-pressure throttles the processor.
        """
        if self.free_slots(channel) <= 0:
            return False
        self._enqueue(packet, channel.index)
        return True

    def _enqueue(self, packet: Packet, index: int) -> None:
        queue = self._queues[index]
        queue.append(packet)
        self._count += 1
        if self._watcher is not None:
            self._watcher(index, 1, queue[0])

    def head(self, channel: VirtualChannel) -> Packet | None:
        queue = self._queues[channel.index]
        return queue[0] if queue else None

    def remove(self, packet: Packet, channel: VirtualChannel) -> None:
        """Departure: the packet won arbitration and left the router."""
        index = channel.index
        queue = self._queues[index]
        if not queue or queue[0] is not packet:
            # Read-port arbiters only nominate FIFO heads, so a grant
            # always removes the head; anything else is a model bug.
            raise ValueError(f"{packet} is not at the head of {channel}")
        queue.popleft()
        self._count -= 1
        if self._watcher is not None:
            self._watcher(index, -1, queue[0] if queue else None)

    # -- introspection -----------------------------------------------

    def packets(self, channel: VirtualChannel):
        """Iterate the waiting packets of one channel, FIFO order.

        Read-only view for invariant checking and diagnostics; the
        underlying deque must not be mutated during iteration.
        """
        return iter(self._queues[channel.index])

    def reserved(self, channel: VirtualChannel) -> int:
        """Slots promised to in-flight packets but not yet occupied."""
        return self._reserved[channel.index]

    def credit_state(self):
        """Yield ``(channel, occupancy, reserved)`` for non-idle channels.

        The invariant checker walks this to assert credit-flow sanity
        without touching the per-channel lists directly.
        """
        for channel, queue, reserved in zip(_CHANNELS, self._queues, self._reserved):
            if queue or reserved:
                yield channel, len(queue), reserved

    def occupancy(self, channel: VirtualChannel | None = None) -> int:
        if channel is not None:
            return len(self._queues[channel.index])
        return self._count

    def channels_with_waiting(self) -> set[VirtualChannel]:
        """Channels holding at least one packet."""
        return {channel for channel, queue in zip(_CHANNELS, self._queues) if queue}

    def is_empty(self) -> bool:
        return self._count == 0

    def total_capacity(self) -> int:
        return self._plan.total_packets()


class BufferOverflowError(RuntimeError):
    """Raised when flow control is violated (a slot was not reserved)."""
