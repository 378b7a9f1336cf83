"""Fleet worker: connect, lease tasks, run the exact serial path.

:class:`FleetWorker` is the remote analogue of the supervised pool's
worker loop (:func:`repro.resilience.supervisor._worker_main`): recv a
task, rebuild the picklable spec, run the same module-level runner a
local worker would (``run_point_attempt`` for sweep points, the
campaign's scenario runner for chaos), and ship the result back.  The
simulator's in-band heartbeats are forwarded over the socket, stamped
with the task's lease ``dispatch`` id so the scheduler can tell a
live worker from a zombie whose lease already expired.

Failure handling is all on the reconnect path:

* connection refused / dropped -- retry with the shared
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
from typing import Any, Callable

from repro.resilience.backoff import jittered_backoff
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    connect,
    decode_payload,
    encode_payload,
)

__all__ = ["FleetWorker", "WorkerConfig", "run_worker"]


def _sweep_point_runner() -> Callable[[Any, Callable], Any]:
    from repro.sim.parallel import run_point_attempt

    return run_point_attempt


def _chaos_scenario_runner() -> Callable[[Any, Callable], Any]:
    from repro.chaos.campaign import _supervised_scenario

    return _supervised_scenario


#: task_kind -> lazy runner factory.  Lazy so importing the service
#: package never drags in the simulator stack.
TASK_RUNNERS: dict[str, Callable[[], Callable[[Any, Callable], Any]]] = {
    "sweep-point": _sweep_point_runner,
    "chaos-scenario": _chaos_scenario_runner,
}


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


class _SocketHeartbeat:
    """The heartbeat callable threaded into the simulator's tick.

    Wall-throttled like the pipe-based sender; a send failure is
    swallowed -- the coordinator's staleness check notices either
    way, and the serve loop will hit the same dead socket next.
    """

    def __init__(
        self, channel: MessageChannel, min_interval_s: float = 0.2
    ) -> None:
        self._channel = channel
        self._min_interval_s = min_interval_s
        self._token: str | None = None
        self._dispatch: int | None = None
        self._last = 0.0

    def reset(self, token: str, dispatch: int) -> None:
        self._token = token
        self._dispatch = dispatch
        self._last = 0.0
        self()  # one immediate beat: "task received, alive"

    def __call__(self) -> None:
        now = time.monotonic()
        if now - self._last < self._min_interval_s:
            return
        self._last = now
        try:
            self._channel.send(
                {
                    "type": "heartbeat",
                    "token": self._token,
                    "dispatch": self._dispatch,
                }
            )
        except OSError:
            pass


class FleetWorker:
    """One remote worker process's whole life: connect, serve, retry."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        #: (session, frame) of a result the last send failed on.
        self._stash: tuple[str, dict] | None = None
        self._runners: dict[str, Callable[[Any, Callable], Any]] = {}

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
        heartbeat = _SocketHeartbeat(channel)
        while True:
            try:
                frame = channel.recv()
            except (OSError, ProtocolError):
                return False
            if frame is None:
                return False
            kind = frame.get("type")
            if kind == "shutdown":
                return True
            if kind != "task":
                continue
            reply = self._run_task(frame, heartbeat)
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

    def _run_task(self, frame: dict, heartbeat: _SocketHeartbeat) -> dict:
        token = str(frame.get("token"))
        dispatch = frame.get("dispatch")
        base = {"token": token, "dispatch": dispatch}
        heartbeat.reset(token, dispatch)
        try:
            runner = self._runner(str(frame.get("task_kind")))
            payload = decode_payload(frame["payload"])
            result = runner(payload, heartbeat)
            return {
                "type": "result",
                "payload": encode_payload(result),
                **base,
            }
        except BaseException as error:  # noqa: BLE001 - report, stay alive
            return {
                "type": "error",
                "detail": f"{type(error).__name__}: {error}",
                **base,
            }

    def _runner(self, task_kind: str) -> Callable[[Any, Callable], Any]:
        runner = self._runners.get(task_kind)
        if runner is None:
            factory = TASK_RUNNERS.get(task_kind)
            if factory is None:
                raise ValueError(f"unknown task kind: {task_kind!r}")
            runner = self._runners[task_kind] = factory()
        return runner


def run_worker(config: WorkerConfig) -> int:
    """Module-level entry point (spawnable by tests and the CLI)."""
    return FleetWorker(config).run()
