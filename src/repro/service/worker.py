"""Fleet worker: connect, lease tasks, run the exact serial path.

:class:`FleetWorker` is the remote analogue of the supervised pool's
worker loop (:func:`repro.resilience.supervisor._serve_pool`): recv a
task and run it with the same body a local worker uses
(:func:`~repro.resilience.supervisor.run_task`: unpickle the runner the
scheduler sent with the spec, run it, pickle the result), then ship the
result back.  The worker knows no runners of its own; whatever the
scheduler was built with arrives in the task.  The simulator's in-band
heartbeats go through the same
:class:`~repro.resilience.supervisor.Heartbeat`, stamped with the
task's token and lease ``dispatch`` id so the scheduler can tell a live
worker from a zombie whose lease already expired.

Failure handling is all on the reconnect path:

* connection refused / dropped, or a frame that does not parse --
  retry with the shared
  :func:`~repro.resilience.backoff.jittered_backoff` (seeded, so a
  fleet of workers restarting together does not stampede the
  coordinator in lockstep);
* a result that cannot be sent is stashed and re-sent after
  reconnecting **iff** the coordinator is the same incarnation (the
  ``welcome`` frame's session id matches); a restarted coordinator
  rebuilt its state from the journal, so the stash is dropped and the
  point simply re-runs -- determinism makes the re-run bit-identical;
* a ``shutdown`` frame ends the loop cleanly (exit code 0).

Workers never touch the journal; the coordinator is its single
writer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.resilience.backoff import jittered_backoff
from repro.resilience.supervisor import Heartbeat, run_task
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    connect,
    decode_payload,
    encode_payload,
)

__all__ = ["FleetWorker", "WorkerConfig", "run_worker"]


@dataclass(frozen=True)
class WorkerConfig:
    """Where to connect and how stubbornly to reconnect.

    ``reconnect_jitter`` is drawn from a worker-local RNG seeded with
    ``seed`` -- deterministic per worker, decorrelated across a fleet
    started with distinct seeds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    name: str = ""
    reconnect_base_s: float = 0.5
    reconnect_factor: float = 2.0
    reconnect_max_s: float = 30.0
    reconnect_jitter: float = 0.5
    #: consecutive failed connection attempts before giving up;
    #: ``None`` retries until a shutdown arrives.
    max_reconnects: int | None = None
    seed: int = 0


class FleetWorker:
    """One remote worker process's whole life: connect, serve, retry."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        #: (session, frame) of a result the last send failed on.
        self._stash: tuple[str, dict] | None = None

    def run(self) -> int:
        """Serve until shutdown (0) or reconnects exhausted (1)."""
        attempt = 0
        while True:
            try:
                channel = connect(self.config.host, self.config.port)
            except OSError:
                attempt += 1
                if (
                    self.config.max_reconnects is not None
                    and attempt > self.config.max_reconnects
                ):
                    return 1
                time.sleep(
                    jittered_backoff(
                        self.config.reconnect_base_s,
                        self.config.reconnect_factor,
                        attempt - 1,
                        rng=self._rng,
                        jitter=self.config.reconnect_jitter,
                        max_delay=self.config.reconnect_max_s,
                    )
                )
                continue
            attempt = 0
            try:
                done = self._serve(channel)
            finally:
                channel.close()
            if done:
                return 0

    # -- one connection's serve loop -------------------------------------

    def _serve(self, channel: MessageChannel) -> bool:
        """True when a shutdown ends the worker, False to reconnect."""
        try:
            channel.send({"type": "hello", "name": self.config.name})
            welcome = channel.recv()
        except (OSError, ProtocolError):
            return False
        if welcome is None or welcome.get("type") != "welcome":
            return False
        session = str(welcome.get("session", ""))
        if not self._flush_stash(channel, session):
            return False
        heartbeat = Heartbeat(channel.send)
        while True:
            try:
                frame = channel.recv()
                if frame is None:
                    return False
                kind = frame.get("type")
                if kind == "shutdown":
                    return True
                if kind != "task":
                    continue
                task = decode_payload(frame.get("payload"))
            except (OSError, ProtocolError):
                return False
            stamp = {
                "token": str(frame.get("token")),
                "dispatch": frame.get("dispatch"),
            }
            kind, data = run_task(
                task, heartbeat, {"type": "heartbeat", **stamp}
            )
            if kind == "done":
                reply = {
                    "type": "result", "payload": encode_payload(data), **stamp
                }
            else:
                reply = {"type": "error", "detail": data, **stamp}
            try:
                channel.send(reply)
            except OSError:
                # Coordinator gone mid-send: keep the result for the
                # same incarnation, then reconnect.
                self._stash = (session, reply)
                return False

    def _flush_stash(self, channel: MessageChannel, session: str) -> bool:
        if self._stash is None:
            return True
        stashed_session, reply = self._stash
        self._stash = None
        if stashed_session != session:
            # New coordinator incarnation: it rebuilt from the journal
            # and will re-lease anything unfinished; the stale result
            # would only be discarded as a duplicate.
            return True
        try:
            channel.send(reply)
        except OSError:
            self._stash = (stashed_session, reply)
            return False
        return True


def run_worker(config: WorkerConfig) -> int:
    """Module-level entry point (spawnable by tests and the CLI)."""
    return FleetWorker(config).run()
