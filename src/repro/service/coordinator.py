"""The fleet transport: remote workers behind the one scheduler.

``PointSupervisor(runner, FleetTransport(server))`` is the ordinary
:class:`~repro.resilience.supervisor.PointSupervisor` -- same runner,
ready heap, lease table, crash/quarantine policy, events and
:class:`~repro.resilience.supervisor.SupervisorConfig` as a local pool
-- whose holders are the connections joined to a
:class:`~repro.service.server.ServiceServer` instead of child
processes.  Everything wire-shaped lives here: tokens, task frames,
base64-wrapping the task and result bytes, and kicking a connection.
Closing the scheduler does **not** close the shared server: one serve
loop runs many sweeps (fig10 panels, campaign phases) over one fleet.

Exactly-once recording over at-least-once dispatch:

* every task frame carries the table-unique lease ``dispatch`` id and
  a token naming the task; workers echo both on heartbeats and results;
* a delivery whose ``(token, dispatch)`` does not match the live
  lease held by *that* connection is stale -- its lease expired and
  the task was re-granted -- and the scheduler counts and discards
  it, never journals it (an unknown token resolves to no task);
* the coordinator stays the journal's single writer; workers never
  touch it.

The coordinator holds no durable state.  After a SIGKILL the caller
reconstructs "what is already done" from the journal (the same
``--resume`` path a single-host run uses) and only the remainder is
ever leased out again.
"""

from __future__ import annotations

import itertools
import queue
import secrets
import time
from typing import Any, Callable

from repro.resilience.leases import Lease
from repro.resilience.supervisor import Delivery
from repro.service.protocol import decode_payload, encode_payload
from repro.service.server import ServiceServer, WorkerConnection

__all__ = ["FleetTransport"]

#: wire frame type -> delivery kind.
_DELIVERY_KINDS = {"heartbeat": "heartbeat", "result": "done", "error": "error"}


class FleetTransport:
    """Lease tasks to the server's connected workers over TCP."""

    def __init__(self, server: ServiceServer, telemetry=None) -> None:
        self.server = server
        self.telemetry = telemetry
        self.stats = {"leases": 0, "reassignments": 0, "worker_connects": 0}
        # Tokens travel where task ids cannot (task ids are arbitrary
        # tuples; frames are JSON).  The nonce keeps tokens unique
        # across successive coordinators sharing one server, so a
        # previous sweep's straggler result can never match.
        self._token_prefix = secrets.token_hex(4)
        self._seq = itertools.count()
        self._tokens: dict[Any, str] = {}
        self._tasks_by_token: dict[str, Any] = {}
        self._started = time.monotonic()

    def _tracing(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    def idle_holder(
        self, busy: Callable[[Any], Any]
    ) -> WorkerConnection | None:
        # The server's live connection list is the roster (so a fleet
        # assembled for a previous sweep carries over); a worker is
        # idle when it holds no lease in *this* scheduler's table.
        for worker in self.server.workers:
            if not busy(worker):
                return worker
        return None

    def send(self, lease: Lease, task: bytes, reassigned: bool) -> None:
        worker: WorkerConnection = lease.holder
        token = self._tokens.get(lease.task_id)
        if token is None:
            token = f"{self._token_prefix}-{next(self._seq)}"
            self._tokens[lease.task_id] = token
            self._tasks_by_token[token] = lease.task_id
        try:
            worker.channel.send({
                "type": "task",
                "token": token,
                "dispatch": lease.dispatch,
                "payload": encode_payload(task),
            })
        except OSError:
            # Connection died under us; the reader's ``leave`` cleans
            # the roster.
            self.server.kick(worker)
            raise
        self.stats["leases"] += 1
        self.stats["reassignments"] += reassigned
        if self._tracing():
            self.telemetry.on_lease_granted(
                time.monotonic() - self._started,
                str(lease.task_id),
                worker.name,
                lease.dispatch,
                reassigned,
            )

    def poll(self, timeout: float) -> list[Delivery]:
        deliveries: list[Delivery] = []
        try:
            item = self.server.inbox.get(timeout=timeout)
        except queue.Empty:
            item = None
        while item is not None:
            kind, worker = item[0], item[1]
            if kind == "join":
                self.stats["worker_connects"] += 1
                if self._tracing():
                    self.telemetry.on_worker_connect(
                        time.monotonic() - self._started, worker.name
                    )
            elif kind == "leave":
                deliveries.append(Delivery(
                    "left",
                    worker,
                    data=f"worker {worker.name} disconnected mid-task",
                ))
            elif kind == "message":
                delivery = self._decode(worker, item[2])
                if delivery is not None:
                    deliveries.append(delivery)
            try:
                item = self.server.inbox.get_nowait()
            except queue.Empty:
                item = None
        return deliveries

    def _decode(self, worker: WorkerConnection, frame: dict) -> Delivery | None:
        kind = _DELIVERY_KINDS.get(frame.get("type"))
        if kind is None:
            return None
        task_id = self._tasks_by_token.get(frame.get("token"))
        data = None
        if kind == "done" and task_id is not None:
            data = decode_payload(frame["payload"])
        elif kind == "error":
            data = frame.get("detail", "worker runner raised")
        return Delivery(kind, worker, task_id, frame.get("dispatch"), data)

    def drop(self, lease: Lease, detail: str) -> None:
        # The remote analogue of reaping: drop the connection so a
        # wedged worker cannot later deliver a stale result as a live
        # one (and its process notices on reconnect).
        if self._tracing():
            self.telemetry.on_lease_expired(
                time.monotonic() - self._started,
                str(lease.task_id),
                lease.holder.name,
                detail,
            )
        self.server.kick(lease.holder)

    def close(self) -> None:
        """Nothing to release: the server (and its workers) live on."""
