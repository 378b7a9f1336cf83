"""Unit tests for MSHRs and the coherence-protocol engine (stub host)."""

import random

import pytest

from repro.coherence.mshr import MSHRFile
from repro.coherence.protocol import CoherenceEngine
from repro.coherence.transactions import TransactionKind
from repro.network.packets import Packet, PacketClass
from repro.router.ports import InputPort, OutputPort


class StubHost:
    """Records injections and runs scheduled callbacks on demand."""

    def __init__(self):
        self.now = 0.0
        self.injected: list[tuple[int, InputPort, Packet]] = []
        self.scheduled: list[tuple[float, object]] = []

    def cycles_per_ns(self) -> float:
        return 1.2

    def enqueue_local(self, node, port, packet):
        self.injected.append((node, port, packet))

    def schedule_after(self, delay, callback):
        self.scheduled.append((self.now + delay, callback))

    def run_next(self):
        self.scheduled.sort(key=lambda item: item[0])
        time, callback = self.scheduled.pop(0)
        self.now = time
        callback()


def make_engine(host, num_nodes=16, mshr_limit=4, two_hop=1.0, seed=1):
    return CoherenceEngine(
        host=host,
        num_nodes=num_nodes,
        mshr_limit=mshr_limit,
        two_hop_fraction=two_hop,
        memory_latency_ns=73.0,
        l2_latency_cycles=25.0,
        rng=random.Random(seed),
    )


class TestMSHR:
    def test_acquire_release_cycle(self):
        mshrs = MSHRFile(2)
        assert mshrs.try_acquire() and mshrs.try_acquire()
        assert not mshrs.try_acquire()
        assert mshrs.outstanding == 2 and mshrs.available == 0
        mshrs.release()
        assert mshrs.try_acquire()

    def test_over_release_rejected(self):
        mshrs = MSHRFile(1)
        with pytest.raises(ValueError):
            mshrs.release()

    def test_needs_positive_limit(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestTwoHopFlow:
    def test_request_then_memory_then_response(self):
        host = StubHost()
        engine = make_engine(host, two_hop=1.0)
        transaction = engine.try_start_transaction(requester=2, home=9)
        assert transaction.kind is TransactionKind.TWO_HOP
        assert transaction.owner is None

        # The request left the requester's cache port, aimed at the
        # home's chosen memory controller sink.
        node, port, request = host.injected.pop()
        assert (node, port) == (2, InputPort.CACHE)
        assert request.pclass is PacketClass.REQUEST
        assert request.destination == 9
        assert request.sink_outputs in (
            (int(OutputPort.L0),), (int(OutputPort.L1),)
        )

        engine.on_packet_delivered(request)
        assert host.scheduled, "memory response must be scheduled"
        # 73 ns at 1.2 cycles/ns.
        assert host.scheduled[0][0] == pytest.approx(73.0 * 1.2)
        host.run_next()

        node, port, response = host.injected.pop()
        assert node == 9
        assert port in (InputPort.MC0, InputPort.MC1)
        assert response.pclass is PacketClass.BLOCK_RESPONSE
        assert response.destination == 2

        engine.on_packet_delivered(response)
        assert transaction.complete
        assert engine.mshrs[2].outstanding == 0

    def test_mshr_exhaustion_throttles(self):
        host = StubHost()
        engine = make_engine(host, mshr_limit=2)
        assert engine.try_start_transaction(0, 1) is not None
        assert engine.try_start_transaction(0, 2) is not None
        assert engine.try_start_transaction(0, 3) is None
        assert len(host.injected) == 2

    def test_completion_hook_fires(self):
        host = StubHost()
        engine = make_engine(host)
        seen = []
        engine.on_transaction_complete = seen.append
        transaction = engine.try_start_transaction(0, 1)
        request = host.injected.pop()[2]
        engine.on_packet_delivered(request)
        host.run_next()
        response = host.injected.pop()[2]
        engine.on_packet_delivered(response)
        assert seen == [transaction]


class TestThreeHopFlow:
    def test_forward_and_owner_response(self):
        host = StubHost()
        engine = make_engine(host, two_hop=0.0)
        transaction = engine.try_start_transaction(requester=0, home=5)
        assert transaction.kind is TransactionKind.THREE_HOP
        assert transaction.owner not in (0, 5)

        request = host.injected.pop()[2]
        engine.on_packet_delivered(request)
        host.run_next()  # memory lookup -> forward injected at home

        node, port, forward = host.injected.pop()
        assert node == 5
        assert port in (InputPort.MC0, InputPort.MC1)
        assert forward.pclass is PacketClass.FORWARD
        assert forward.destination == transaction.owner

        engine.on_packet_delivered(forward)
        # L2 lookup at the owner: 25 cycles.
        assert host.scheduled[0][0] - host.now == pytest.approx(25.0)
        host.run_next()

        node, port, response = host.injected.pop()
        assert node == transaction.owner
        assert port is InputPort.CACHE  # the owning cache supplies data
        assert response.pclass is PacketClass.BLOCK_RESPONSE
        assert response.destination == 0

        engine.on_packet_delivered(response)
        assert transaction.complete

    def test_owner_selection_excludes_parties_when_possible(self):
        host = StubHost()
        engine = make_engine(host, two_hop=0.0, num_nodes=16)
        for _ in range(30):
            transaction = engine.try_start_transaction(3, 7)
            if transaction is None:
                break
            assert transaction.owner not in (3, 7)
            # complete it to free the MSHR
            request = host.injected.pop()[2]
            engine.on_packet_delivered(request)
            host.run_next()
            forward = host.injected.pop()[2]
            engine.on_packet_delivered(forward)
            host.run_next()
            response = host.injected.pop()[2]
            engine.on_packet_delivered(response)


class TestEngineBookkeeping:
    def test_unknown_packets_ignored(self):
        host = StubHost()
        engine = make_engine(host)
        stray = Packet(PacketClass.SPECIAL, 0, 1)
        engine.on_packet_delivered(stray)  # no transaction: no effect
        stale = Packet(PacketClass.REQUEST, 0, 1, transaction=99999)
        engine.on_packet_delivered(stale)  # unknown tid: no effect

    def test_outstanding_count(self):
        host = StubHost()
        engine = make_engine(host)
        assert engine.outstanding_transactions == 0
        engine.try_start_transaction(0, 1)
        assert engine.outstanding_transactions == 1

    def test_transaction_ids_unique(self):
        engine = make_engine(StubHost())
        first = engine.try_start_transaction(0, 1)
        second = engine.try_start_transaction(1, 0)
        assert first.tid != second.tid

    def test_ids_are_numbered_per_engine(self):
        """Ids restart with every engine (= every run), so what a run
        writes never depends on what its process simulated before."""
        def ids():
            host = StubHost()
            engine = make_engine(host)
            tids = [engine.try_start_transaction(0, 1).tid for _ in range(3)]
            return tids, [packet.uid for _, _, packet in host.injected]

        assert ids() == ids() == ([0, 1, 2], [0, 1, 2])
