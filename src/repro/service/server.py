"""The coordinator's listening side: sockets in, one inbox queue out.

:class:`ServiceServer` owns every thread the service needs -- one
acceptor plus one reader per connection -- and funnels everything they
hear into a single ``queue.Queue``, so the scheduler
(:class:`~repro.resilience.supervisor.PointSupervisor`, polling the
inbox through :class:`~repro.service.coordinator.FleetTransport`)
stays single-threaded, exactly as it is over a local pool.

A connection's first frame routes it:

* ``hello`` -- a fleet worker joining; it stays connected and its
  frames flow into the inbox as ``("join", conn)`` /
  ``("message", conn, frame)`` / ``("leave", conn)`` items;
* ``status`` -- a one-shot client; answered from the status provider
  and closed without touching the inbox;
* ``submit`` -- a one-shot client handing in a job; the job check
  decides before the answer: an accepted frame is pushed onto
  :attr:`jobs` and acknowledged with ``ok``, a refused one is answered
  with an ``error`` frame and goes nowhere.

The server restarts cleanly after a coordinator SIGKILL because it
holds no durable state at all -- the journal is the only truth, and
rebuilding the lease table from it is the coordinator's job.
"""

from __future__ import annotations

import queue
import secrets
import socket
import threading
from typing import Any, Callable

from repro.service.protocol import MessageChannel, ProtocolError

__all__ = ["ServiceServer", "WorkerConnection"]


class WorkerConnection:
    """One joined fleet worker, as the coordinator sees it."""

    def __init__(self, channel: MessageChannel, name: str) -> None:
        self.channel = channel
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerConnection({self.name!r}, {self.channel.peer})"


class ServiceServer:
    """Accept loop + per-connection readers feeding one inbox queue.

    Usage::

        with ServiceServer(host, port) as server:
            scheduler = PointSupervisor(runner, FleetTransport(server))
            ...

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports
    the bound one either way.  Each server run mints a random
    ``session`` id that workers echo back, so a result produced for a
    previous coordinator incarnation can never be mistaken for this
    one's.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.session = secrets.token_hex(8)
        #: ("join", wc) / ("message", wc, frame) / ("leave", wc)
        self.inbox: "queue.Queue[tuple]" = queue.Queue()
        #: accepted ``submit`` frames awaiting the serve loop.
        self.jobs: "queue.Queue[dict]" = queue.Queue()
        self._status_provider: Callable[[], dict] = lambda: {}
        self._job_check: Callable[[Any], None] = self._no_jobs
        self._workers: list[WorkerConnection] = []
        self._lock = threading.Lock()
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting and drop every connection."""
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self._workers)
            self._workers.clear()
        for worker in workers:
            worker.channel.close()

    # -- the coordinator's handles ---------------------------------------

    def set_status_provider(self, provider: Callable[[], dict]) -> None:
        """Install the callable answering one-shot ``status`` queries."""
        self._status_provider = provider

    def set_job_check(self, check: Callable[[Any], None]) -> None:
        """Install the callable deciding ``submit`` frames: it is handed
        the frame's job and raises (or exits, as a parser does) to
        refuse it.  Whoever installs one drains :attr:`jobs`."""
        self._job_check = check

    @staticmethod
    def _no_jobs(job: Any) -> None:
        raise SystemExit("this coordinator does not take submitted jobs")

    @property
    def workers(self) -> list[WorkerConnection]:
        with self._lock:
            return list(self._workers)

    def kick(self, worker: WorkerConnection) -> None:
        """Forcibly drop a worker (its reader then reports ``leave``)."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.channel.close()

    def broadcast(self, frame: dict) -> None:
        """Best-effort frame to every joined worker (e.g. shutdown)."""
        for worker in self.workers:
            try:
                worker.channel.send(frame)
            except OSError:
                pass

    # -- threads ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._route_connection,
                args=(MessageChannel(sock),),
                name=f"service-conn-{sock.fileno()}",
                daemon=True,
            ).start()

    def _route_connection(self, channel: MessageChannel) -> None:
        try:
            frame = channel.recv()
        except (ProtocolError, OSError):
            channel.close()
            return
        if frame is None:
            channel.close()
            return
        kind = frame.get("type")
        if kind == "hello":
            self._serve_worker(channel, frame)
        elif kind == "status":
            self._answer(channel, self._safe_status())
        elif kind == "submit":
            self._answer(channel, self._take_job(frame))
        else:
            channel.close()

    def _answer(self, channel: MessageChannel, reply: dict) -> None:
        try:
            channel.send(reply)
        except OSError:
            pass
        channel.close()

    def _take_job(self, frame: dict) -> dict:
        try:
            self._job_check(frame.get("job"))
        except (Exception, SystemExit) as error:  # noqa: BLE001 - refused
            return {"type": "error", "detail": str(error)}
        self.jobs.put(frame)
        return {"type": "ok", "session": self.session}

    def _safe_status(self) -> dict:
        try:
            status = dict(self._status_provider())
        except Exception as error:  # noqa: BLE001 - never kill the reader
            status = {"error": f"{type(error).__name__}: {error}"}
        status["type"] = "status"
        status["session"] = self.session
        return status

    def _serve_worker(self, channel: MessageChannel, hello: dict) -> None:
        worker = WorkerConnection(
            channel, str(hello.get("name") or channel.peer)
        )
        try:
            channel.send({"type": "welcome", "session": self.session})
        except OSError:
            channel.close()
            return
        with self._lock:
            if self._closed:
                channel.close()
                return
            self._workers.append(worker)
        self.inbox.put(("join", worker))
        while True:
            try:
                frame = channel.recv()
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                break
            self.inbox.put(("message", worker, frame))
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        channel.close()
        self.inbox.put(("leave", worker))
