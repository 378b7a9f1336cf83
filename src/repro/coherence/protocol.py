"""The coherence-protocol engine driving the timing model.

Implements the packet flows of the paper's synthetic workload:

* **2-hop** (70%): requester sends a 3-flit REQUEST to the home node;
  after the 73 ns memory response time the home injects a 19-flit
  BLOCK_RESPONSE back to the requester.
* **3-hop** (30%): the home instead injects a 3-flit FORWARD to the
  owning cache; after the 25-cycle L2 response time the owner injects
  the BLOCK_RESPONSE to the requester.
* **I/O read** (optional, beyond the paper's mix): a 3-flit READ_IO
  from the requester's I/O port to the target's I/O port; after the
  memory response time the target returns a 19-flit WRITE_IO carrying
  the data.  I/O packets ride only the deadlock-free channels, per the
  21364's I/O ordering rules.

The engine is deliberately ignorant of routers and events: it talks to
the simulator through the tiny :class:`ProtocolHost` interface, which
keeps the coherence logic unit-testable with a stub host.
"""

from __future__ import annotations

import itertools
import random
from typing import Protocol

from repro.coherence.mshr import MSHRFile
from repro.coherence.transactions import Transaction, TransactionKind
from repro.network.packets import Packet, PacketClass
from repro.router.ports import InputPort, OutputPort


class ProtocolHost(Protocol):
    """What the coherence engine needs from the simulator."""

    @property
    def now(self) -> float:
        """Current time in core cycles."""
        ...

    def cycles_per_ns(self) -> float:
        """Core cycles in one nanosecond (1.2 at 1.2 GHz)."""
        ...

    def enqueue_local(self, node: int, port: InputPort, packet: Packet) -> None:
        """Hand a packet to a node's local input port (may queue)."""
        ...

    def schedule_after(self, delay_cycles: float, callback) -> None:
        """Run *callback* after a delay."""
        ...


class CoherenceEngine:
    """Per-run protocol state machine for every node."""

    def __init__(
        self,
        host: ProtocolHost,
        num_nodes: int,
        mshr_limit: int,
        two_hop_fraction: float,
        memory_latency_ns: float,
        l2_latency_cycles: float,
        rng: random.Random,
        io_fraction: float = 0.0,
    ) -> None:
        if not 0.0 <= io_fraction <= 1.0:
            raise ValueError("io_fraction must be within [0, 1]")
        self._host = host
        self._num_nodes = num_nodes
        self._two_hop_fraction = two_hop_fraction
        self._io_fraction = io_fraction
        self._memory_latency_ns = memory_latency_ns
        self._l2_latency_cycles = l2_latency_cycles
        self._rng = rng
        self.mshrs = [MSHRFile(mshr_limit) for _ in range(num_nodes)]
        self._live: dict[int, Transaction] = {}
        # Ids are numbered per engine, i.e. per run: what a run writes
        # (traces, "packet #N" diagnostics, which packets a sampling
        # observer picks) must not depend on what its process ran before.
        self._tids = itertools.count()
        self._uids = itertools.count()
        #: transactions abandoned because a carrying packet was dropped
        #: (fault injection); their MSHRs are released so the node can
        #: keep issuing misses.
        self.transactions_aborted = 0
        #: hooks the simulator fills in for statistics
        self.on_transaction_complete = lambda transaction: None

    @property
    def outstanding_transactions(self) -> int:
        return len(self._live)

    # -- miss issue -----------------------------------------------------

    def try_start_transaction(self, requester: int, home: int) -> Transaction | None:
        """Issue one cache miss; None when the requester's MSHRs are full."""
        if not self.mshrs[requester].try_acquire():
            return None
        if self._io_fraction and self._rng.random() < self._io_fraction:
            kind = TransactionKind.IO_READ
            owner = None
        elif self._rng.random() < self._two_hop_fraction:
            kind = TransactionKind.TWO_HOP
            owner = None
        else:
            kind = TransactionKind.THREE_HOP
            owner = self._pick_owner(requester, home)
        transaction = Transaction(
            tid=next(self._tids),
            kind=kind,
            requester=requester,
            home=home,
            owner=owner,
            mc_index=self._rng.randrange(2),
            started_at=self._host.now,
        )
        self._live[transaction.tid] = transaction
        if kind is TransactionKind.IO_READ:
            request = Packet(
                PacketClass.READ_IO,
                source=requester,
                destination=home,
                transaction=transaction.tid,
                injected_at=self._host.now,
                uid=next(self._uids),
                sink_outputs=(int(OutputPort.IO),),
            )
            self._host.enqueue_local(requester, InputPort.IO, request)
            return transaction
        request = Packet(
            PacketClass.REQUEST,
            source=requester,
            destination=home,
            transaction=transaction.tid,
            injected_at=self._host.now,
            uid=next(self._uids),
            # A request sinks at the home's memory controller port.
            sink_outputs=(int(OutputPort.L0) + transaction.mc_index,),
        )
        self._host.enqueue_local(requester, InputPort.CACHE, request)
        return transaction

    def _pick_owner(self, requester: int, home: int) -> int:
        """Uniform third party (!= requester, != home when possible)."""
        if self._num_nodes <= 2:
            return home if home != requester else (requester + 1) % self._num_nodes
        while True:
            owner = self._rng.randrange(self._num_nodes)
            if owner not in (requester, home):
                return owner

    # -- packet delivery ------------------------------------------------

    def on_packet_delivered(self, packet: Packet) -> None:
        """Advance the owning transaction when a packet sinks."""
        if packet.transaction is None:
            return
        transaction = self._live.get(packet.transaction)
        if transaction is None:
            return
        if packet.pclass is PacketClass.REQUEST:
            self._request_delivered(transaction)
        elif packet.pclass is PacketClass.FORWARD:
            self._forward_delivered(transaction)
        elif packet.pclass is PacketClass.BLOCK_RESPONSE:
            self._response_delivered(transaction)
        elif packet.pclass is PacketClass.READ_IO:
            self._io_read_delivered(transaction)
        elif packet.pclass is PacketClass.WRITE_IO:
            self._response_delivered(transaction)

    def _request_delivered(self, transaction: Transaction) -> None:
        transaction.request_delivered_at = self._host.now
        delay = self._memory_latency_ns * self._host.cycles_per_ns()
        if transaction.kind is TransactionKind.TWO_HOP:
            self._host.schedule_after(
                delay, lambda: self._inject_response(transaction, from_memory=True)
            )
        else:
            self._host.schedule_after(
                delay, lambda: self._inject_forward(transaction)
            )

    def _inject_forward(self, transaction: Transaction) -> None:
        assert transaction.owner is not None
        forward = Packet(
            PacketClass.FORWARD,
            source=transaction.home,
            destination=transaction.owner,
            transaction=transaction.tid,
            injected_at=self._host.now,
            uid=next(self._uids),
            sink_outputs=None,  # delivered to the owner's cache: L0 or L1
        )
        mc_port = InputPort.MC0 if transaction.mc_index == 0 else InputPort.MC1
        self._host.enqueue_local(transaction.home, mc_port, forward)

    def _forward_delivered(self, transaction: Transaction) -> None:
        transaction.forward_delivered_at = self._host.now
        self._host.schedule_after(
            self._l2_latency_cycles,
            lambda: self._inject_response(transaction, from_memory=False),
        )

    def _inject_response(self, transaction: Transaction, from_memory: bool) -> None:
        if from_memory:
            source = transaction.home
            mc_port = InputPort.MC0 if transaction.mc_index == 0 else InputPort.MC1
        else:
            assert transaction.owner is not None
            source = transaction.owner
            mc_port = InputPort.CACHE  # the owning cache supplies the line
        response = Packet(
            PacketClass.BLOCK_RESPONSE,
            source=source,
            destination=transaction.requester,
            transaction=transaction.tid,
            injected_at=self._host.now,
            uid=next(self._uids),
            sink_outputs=None,  # either local port reaches the cache
        )
        self._host.enqueue_local(source, mc_port, response)

    def _io_read_delivered(self, transaction: Transaction) -> None:
        transaction.request_delivered_at = self._host.now
        delay = self._memory_latency_ns * self._host.cycles_per_ns()
        self._host.schedule_after(
            delay, lambda: self._inject_io_data(transaction)
        )

    def _inject_io_data(self, transaction: Transaction) -> None:
        data = Packet(
            PacketClass.WRITE_IO,
            source=transaction.home,
            destination=transaction.requester,
            transaction=transaction.tid,
            injected_at=self._host.now,
            uid=next(self._uids),
            sink_outputs=(int(OutputPort.IO),),
        )
        self._host.enqueue_local(transaction.home, InputPort.IO, data)

    def _response_delivered(self, transaction: Transaction) -> None:
        transaction.completed_at = self._host.now
        del self._live[transaction.tid]
        self.mshrs[transaction.requester].release()
        self.on_transaction_complete(transaction)

    # -- packet loss ----------------------------------------------------

    def on_packet_dropped(self, packet: Packet) -> None:
        """Abort the owning transaction when a carrying packet is lost.

        The real 21364 link protocol never loses packets (retries are
        unbounded), so there is no recovery flow to model; under
        injected faults with bounded retries the transaction simply
        cannot complete, and holding its MSHR forever would wedge the
        requester.  Release it and count the abort instead.
        """
        if packet.transaction is None:
            return
        transaction = self._live.pop(packet.transaction, None)
        if transaction is None:
            return
        self.mshrs[transaction.requester].release()
        self.transactions_aborted += 1
