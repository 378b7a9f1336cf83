"""Distributed sweep/chaos service: coordinator, worker fleet, CLI.

This package stretches the single-host supervised pool
(:mod:`repro.resilience.supervisor`) over many hosts with nothing but
the standard library: a TCP coordinator that leases journal keys to
remote workers (``repro-experiments serve``; the scheduler is the
local pool's, over :class:`FleetTransport`), a worker loop that runs
whatever task the scheduler sends with the local pool's task body and
streams the simulator's in-band heartbeats back over the wire
(``repro-experiments work``), and a JSON-lines protocol between them.

The coordinator remains the journal's *single writer*: dispatch is
at-least-once (expired leases are re-granted), recording is
exactly-once (stale deliveries are recognized by their lease dispatch
id and discarded).  See ``docs/service.md`` for the protocol and the
failure matrix.
"""

from repro.service.coordinator import FleetTransport
from repro.service.protocol import (
    MessageChannel,
    connect,
    decode_payload,
    encode_payload,
)
from repro.service.server import ServiceServer
from repro.service.worker import FleetWorker, WorkerConfig

__all__ = [
    "FleetTransport",
    "FleetWorker",
    "MessageChannel",
    "ServiceServer",
    "WorkerConfig",
    "connect",
    "decode_payload",
    "encode_payload",
]
