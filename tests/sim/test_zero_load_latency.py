"""Exact zero-load latency of the timing model (ROADMAP item 1(a)).

One hand-placed packet crosses an otherwise empty 4x4 torus.  With no
contention nothing in its path is random, so its delivery time must
*equal* a closed form in the model's own constants -- asserted with
``==``, not ``approx`` on a mean:

    (h + 1) * timing.latency                 every router traversed,
                                             source and destination
                                             included, charges the
                                             algorithm's full arbitration
                                             latency (decision + tail)
  + h * link.hop_latency_cycles(clocks)      13 pin-to-pin + 4.5 link
                                             cycles per hop
  + link.local_port_cycles                   the sink's local port
  + flits * 1.0                              local_cycles_per_flit

The split of ``latency`` into decision and tail cycles cannot show in
that sum (the two always add up to ``latency``), so the grant times
along the path are pinned as well.  All of this pins the constants;
whether they are *right* is a separate question DESIGN.md section 5
records (the docstring of ``LinkSpec.pin_to_pin_cycles`` derives the
13 pin-to-pin cycles as already containing LA, RE and GA, so every hop
pays about three cycles twice).
"""

import pytest

from repro.core.registry import TIMING_ALGORITHMS
from repro.network.packets import Packet, PacketClass
from repro.router.ports import LOCAL_INPUTS
from repro.sim import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.observers import PacketTracer
from repro.sim.timing_model import NetworkSimulator

#: destination node on the 4x4 torus -> minimal hops from node 0.
DESTINATIONS = {1: 1, 2: 2, 10: 4}


def _deliver_one(algorithm: str, pclass: PacketClass, destination: int):
    """(simulator, packet, grant times, delivery time) of one packet
    sent from node 0."""
    config = SimulationConfig(
        algorithm=algorithm,
        network=NetworkConfig(width=4, height=4),
        # The injectors are never started (no ``run()``); the rate only
        # has to be a valid one.
        traffic=TrafficConfig(injection_rate=1e-12),
        warmup_cycles=0,
        measure_cycles=1_000,
        seed=1,
    )
    sim = NetworkSimulator(config)
    tracer = PacketTracer(sample_every=1)
    sim.attach_observer(tracer)
    delivered = []
    # The packet belongs to no transaction: catch it where the
    # simulator hands it to the coherence engine.
    sim.engine.on_packet_delivered = lambda packet: delivered.append(
        (packet, sim.queue.now)
    )
    packet = Packet(pclass, source=0, destination=destination)
    sim.enqueue_local(0, LOCAL_INPUTS[0], packet)
    sim.queue.run_until_idle(1_000.0)
    ((arrived, time),) = delivered
    assert arrived is packet
    grants = tuple(hop.time for hop in tracer.traces[packet.uid].hops)
    return sim, packet, grants, time


@pytest.mark.parametrize("destination", DESTINATIONS)
@pytest.mark.parametrize(
    "pclass", (PacketClass.REQUEST, PacketClass.BLOCK_RESPONSE), ids=lambda c: c.name
)
@pytest.mark.parametrize("algorithm", TIMING_ALGORITHMS)
def test_delivery_time_equals_the_closed_form(algorithm, pclass, destination):
    hops = DESTINATIONS[destination]
    sim, packet, grants, time = _deliver_one(algorithm, pclass, destination)
    assert packet.hops == hops
    assert len(grants) == hops + 1  # the sink's local port is granted too
    assert time == (
        (hops + 1) * sim.timing.latency
        + hops * sim.link.hop_latency_cycles(sim.clocks)
        + sim.link.local_port_cycles
        + packet.flits * 1.0
    )


@pytest.mark.parametrize(
    "algorithm, cycles",
    [("SPAA-base", (29.5, 50.0, 91.0)), ("WFA-base", (31.5, 53.0, 96.0)),
     ("PIM1", (31.5, 53.0, 96.0))],
)
def test_request_latencies_in_cycles(algorithm, cycles):
    """The same thing as literals, so a constant that moves in the
    model *and* in the formula's inputs is still caught."""
    got = tuple(
        _deliver_one(algorithm, PacketClass.REQUEST, destination)[3]
        for destination in DESTINATIONS
    )
    assert got == cycles


@pytest.mark.parametrize(
    "algorithm, grants",
    [("SPAA-base", (3.0, 23.5, 44.0)), ("WFA-base", (3.0, 24.5, 46.0)),
     ("PIM1", (3.0, 24.5, 46.0))],
)
def test_grant_times_in_cycles(algorithm, grants):
    """Router state changes ``latency - tail_cycles`` after the launch
    (3 cycles for all three: SPAA 3 - 0, WFA and PIM1 4 - 1); the next
    router launches ``tail_cycles`` + one hop after that."""
    assert _deliver_one(algorithm, PacketClass.REQUEST, 2)[2] == grants
