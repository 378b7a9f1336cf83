"""The one lease-driven scheduler, its workers' task body, and the pool.

Every pooled sweep and chaos campaign -- ``workers > 1`` on one host,
or a remote fleet -- is dispatched by :class:`PointSupervisor`.  It
alone owns the runner, the delayed ready-heap, the tasks (each pickled
once, runner and payload together), the
:class:`~repro.resilience.leases.LeaseTable`, the event queue, the
crash -> resubmit -> quarantine policy, the stats and the telemetry
callbacks, and it reaches its *holders* only through a small
:class:`Transport` that moves task and result bytes.  Two exist: the
local pool below -- bare child interpreters the parent owns outright,
one duplex socket each (an executor pool cannot terminate one wedged
worker, and one dead worker breaks all of its pending futures) -- and
the TCP fleet in :mod:`repro.service.coordinator`.  Their workers run
every task with the same body, :func:`run_task`, and beat with the
same :class:`Heartbeat`; neither knows which runner it will be handed.
The scheduler

* watches **heartbeats**: the task runner receives a heartbeat
  callable that the simulation drives from inside its event loop (see
  ``NetworkSimulator(heartbeat=...)``), so a wedged loop stops beating
  -- a thread-based heartbeat would defeat the whole point;
* enforces a per-task **wall-clock deadline** and a **heartbeat
  staleness** bound (both off by default), dropping any holder that
  trips either -- the pool reaps it (terminate + join, then kill) and
  spawns a fresh process, the fleet kicks the connection;
* discards any delivery whose ``(dispatch, holder)`` does not match
  the task's live lease: at-least-once dispatch records exactly once;
* classifies every abnormal end as a :class:`SupervisorEvent` so the
  caller can journal each one and a ``--resume`` rerun retries it (a
  hand-off that fails because the holder died before the task reached
  it is *not* one: the task never ran and is simply requeued);
* reports counters and trace events through an optional telemetry.

Determinism: the scheduler only decides *where and when* a task runs,
never what it computes -- payloads are picklable specs, workers
rebuild all state from them, and results stay bitwise identical to a
serial run.  Wall-clock only ever flows into *drop decisions*, never
into results, so outcomes journal deterministically.
"""

from __future__ import annotations

import heapq
import itertools
import math
import pickle
import socket
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, NamedTuple, Protocol

from repro.resilience.leases import Lease, LeaseTable

__all__ = [
    "Delivery",
    "Heartbeat",
    "PointSupervisor",
    "SupervisorConfig",
    "SupervisorEvent",
    "Transport",
    "run_task",
]

#: manifests' name for how a pool worker starts: a fresh interpreter,
#: free of inherited parent state (open sinks, RNGs, the loaded
#: journal).  The value is kept from the ``multiprocessing`` start
#: method the pool once used, so manifests stay byte-identical.
MP_CONTEXT = "spawn"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for one scheduler.

    Attributes:
        point_timeout_s: hard wall-clock ceiling per task; a holder
            still running when it expires is dropped (``None`` = no
            deadline).
        heartbeat_stale_s: drop a holder whose last heartbeat is older
            than this -- catches wedges long before a generous
            deadline would (``None`` = staleness not checked).
        quarantine_after: crashes (worker-lost + timeout) of one task
            before it is quarantined instead of retried.
        poll_interval_s: the scheduler's liveness/deadline poll
            cadence; also bounds how long a drop can lag its deadline.
        reap_grace_s: seconds the pool waits after ``terminate()``
            before escalating to ``kill()``.
    """

    point_timeout_s: float | None = None
    heartbeat_stale_s: float | None = None
    quarantine_after: int = 3
    poll_interval_s: float = 0.05
    reap_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive")
        if self.heartbeat_stale_s is not None and self.heartbeat_stale_s <= 0:
            raise ValueError("heartbeat_stale_s must be positive")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def as_dict(self) -> dict:
        """Manifest form (the tuning half of a supervisor section)."""
        # Not a knob any more, but the key stays: manifests are compared
        # byte for byte across versions.
        from repro.sim.timing_model import HEARTBEAT_INTERVAL_CYCLES

        return {
            "point_timeout_s": self.point_timeout_s,
            "heartbeat_stale_s": self.heartbeat_stale_s,
            "heartbeat_interval_cycles": HEARTBEAT_INTERVAL_CYCLES,
            "quarantine_after": self.quarantine_after,
        }


@dataclass(frozen=True)
class SupervisorEvent:
    """One scheduling outcome handed to the caller, in order.

    ``kind`` is one of:

    * ``"result"`` -- the task finished; :attr:`result` is whatever the
      runner returned (the normal case, successes and in-task failures
      alike);
    * ``"worker-lost"`` -- the holder died or disconnected mid-task
      (SIGKILL, OOM, segfault) or its runner let an exception escape;
      the task will be retried unless quarantine is due;
    * ``"timeout"`` -- the holder was dropped at the task deadline or
      the heartbeat-staleness bound; retried likewise;
    * ``"quarantined"`` -- the task crashed its holders
      ``quarantine_after`` times and is abandoned; always follows the
      final crash's own event.
    """

    kind: str
    task_id: Any
    result: Any = None
    detail: str = ""
    #: crashes of this task so far (0 for clean results).
    crashes: int = 0


class Delivery(NamedTuple):
    """One thing a transport heard from (or about) a holder.

    ``kind`` is ``"heartbeat"``, ``"done"`` (*data* is the runner's
    pickled result, which the scheduler unpickles only for the live
    lease), ``"error"`` (the task failed to load, run or pickle its
    result) or ``"left"`` (the holder is gone) -- *data* is then the
    detail.  All but ``left`` echo the ``task_id``/``dispatch`` stamped
    on the task.
    """

    kind: str
    holder: Any
    task_id: Any = None
    dispatch: int | None = None
    data: Any = None


class Transport(Protocol):
    """How the scheduler reaches its holders (each has a ``name``)."""

    #: transport-specific counters, folded into the scheduler's stats.
    stats: dict[str, int]

    def idle_holder(self, busy: Callable[[Any], Any]) -> Any | None:
        """A live holder for which ``busy(holder)`` (it has a live lease)
        is falsy, or ``None`` when there is none."""

    def send(self, lease: Lease, task: bytes, reassigned: bool) -> None:
        """Hand *task* (the pickled runner and payload) to
        ``lease.holder``, stamped with the lease's dispatch id.  Raises
        ``OSError``, after disposing of the holder, when the task cannot
        have reached it."""

    def poll(self, timeout: float) -> list[Delivery]:
        """Wait up to *timeout* seconds for deliveries."""

    def drop(self, lease: Lease, detail: str) -> None:
        """Forcibly dispose of the holder of an expired lease."""

    def close(self) -> None:
        """Release whatever the transport owns."""


class PointSupervisor:
    """The scheduler: one runner, its tasks, and whoever holds them.

    Usage::

        with PointSupervisor(runner, workers, config=cfg) as sup:
            for task_id, payload in work:
                sup.submit(task_id, payload)
            while sup.outstanding:
                event = sup.next_event()
                ...  # journal / retry / collect per event.kind

    *runner* is a module-level callable ``runner(payload, heartbeat)``
    executed by whichever worker holds the task; it should call
    ``heartbeat()`` between simulation epochs (the sweep and chaos
    runners thread it into the simulator's heartbeat tick).  The
    scheduler pickles it with every payload, at :meth:`submit`, so a
    worker needs nothing but the task's bytes (:func:`run_task`).
    *holders* is a worker count (a self-healing local pool) or any
    other :class:`Transport` (the fleet; a test's fake).

    With ``resubmit_crashed=True`` (the sweep's mode) a crashed task is
    automatically resubmitted until ``quarantine_after`` crashes, then
    a ``quarantined`` event ends it.  With ``False`` (a local campaign's
    mode) each crash event is terminal and the caller decides.
    """

    def __init__(
        self,
        runner: Callable[[Any, Callable], Any],
        holders: "int | Transport",
        config: SupervisorConfig | None = None,
        telemetry=None,
        resubmit_crashed: bool = True,
    ) -> None:
        config = config if config is not None else SupervisorConfig()
        if isinstance(holders, int):
            holders = ProcessPoolTransport(holders, config.reap_grace_s)
        self.runner = runner
        self.transport = holders
        self.config = config
        self.telemetry = telemetry
        self.resubmit_crashed = resubmit_crashed
        #: (ready_at, seq, task_id) min-heap of tasks awaiting a holder;
        #: ready_at implements parent-side retry backoff.
        self._ready: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        #: task_id -> the pickled (runner, payload) every hand-off ships.
        self._tasks: dict[Any, bytes] = {}
        self._leases = LeaseTable(
            deadline_s=config.point_timeout_s,
            stale_s=config.heartbeat_stale_s,
        )
        self._events: list[SupervisorEvent] = []
        self._started = time.monotonic()
        self._closed = False
        #: respawns: holders lost or dropped mid-task (the pool replaces
        #: each); duplicates: stale deliveries the live-lease check threw out.
        self._counts = {
            "worker_lost": 0,
            "timeouts": 0,
            "quarantined": 0,
            "respawns": 0,
            "duplicates": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "PointSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop scheduling and close the transport."""
        if self._closed:
            return
        self._closed = True
        self.transport.close()

    # -- submitting and consuming ----------------------------------------

    def submit(self, task_id: Any, payload: Any, delay_s: float = 0.0) -> None:
        """Queue *payload* under *task_id*; *delay_s* defers dispatch.

        Resubmitting an id replaces its payload (how the sweep bumps a
        spec's attempt counter between retries).  A payload that cannot
        be pickled raises here, before anything is dispatched.
        """
        if self._closed:
            raise RuntimeError("supervisor is closed")
        self._tasks[task_id] = pickle.dumps(
            (self.runner, payload), pickle.HIGHEST_PROTOCOL
        )
        self._queue(task_id, delay_s)

    def _queue(self, task_id: Any, delay_s: float = 0.0) -> None:
        heapq.heappush(
            self._ready,
            (time.monotonic() + max(0.0, delay_s), next(self._seq), task_id),
        )

    @property
    def outstanding(self) -> bool:
        """True while any task is queued, leased or awaiting delivery."""
        return bool(self._events or self._ready or len(self._leases))

    def next_event(self) -> SupervisorEvent:
        """Block until the next :class:`SupervisorEvent` is available."""
        while True:
            if self._events:
                return self._events.pop(0)
            if not self.outstanding:
                raise RuntimeError("no outstanding supervised work")
            self._pump()

    @property
    def stats(self) -> dict[str, int]:
        """Live totals: the scheduler's plus the transport's own."""
        return {**self._counts, **self.transport.stats}

    def summary(self) -> dict:
        """The manifest's supervisor section: config + live totals."""
        return {**self.config.as_dict(), **self.stats}

    # -- the scheduling loop ---------------------------------------------

    def _pump(self) -> None:
        self._dispatch_ready()
        # Wake early only for a *future* retry coming due.  A task that
        # is already due but undispatched means every holder is busy:
        # a zero timeout here would busy-spin the parent at 100% CPU
        # against its own workers.
        timeout = self.config.poll_interval_s
        if self._ready:
            until_due = self._ready[0][0] - time.monotonic()
            if until_due > 0.0:
                timeout = min(timeout, until_due)
        for delivery in self.transport.poll(timeout):
            self._handle(delivery)
        # Expiry is the lease table's verdict; disposing of the holder
        # is the transport's job.  It must go: a wedged holder would
        # otherwise keep its slot, or deliver a stale result later.
        for lease, detail in self._leases.expired():
            self._leases.release(lease.task_id)
            self.transport.drop(lease, detail)
            self._counts["respawns"] += 1
            self._record_crash("timeout", lease.task_id, detail)

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        while self._ready and self._ready[0][0] <= now:
            holder = self.transport.idle_holder(self._leases.held_by)
            if holder is None:
                return
            _, _, task_id = heapq.heappop(self._ready)
            reassigned = self._leases.crashes(task_id) > 0
            lease = self._leases.grant(task_id, holder, now)
            try:
                self.transport.send(lease, self._tasks[task_id], reassigned)
            except OSError:
                # The holder died between idle and send: the task
                # never ran, so this is a requeue, not a crash.
                self._leases.release(task_id)
                self._queue(task_id)

    def _handle(self, delivery: Delivery) -> None:
        kind, holder, task_id, dispatch, data = delivery
        if kind == "left":
            for lease in self._leases.held_by(holder):
                self._leases.release(lease.task_id)
                self._counts["respawns"] += 1
                self._record_crash("worker-lost", lease.task_id, data)
            return
        # Exactly-once over at-least-once dispatch: only the holder of
        # the task's live lease, echoing that lease's dispatch id, is
        # heard.  Anything else outlived an expired, re-granted lease.
        lease = self._leases.lease_for(task_id)
        live = (
            lease is not None
            and lease.dispatch == dispatch
            and lease.holder is holder
        )
        if kind == "heartbeat":
            if live:
                self._leases.beat(task_id)
        elif not live:
            self._counts["duplicates"] += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.on_duplicate_result(
                    time.monotonic() - self._started,
                    "<unknown>" if task_id is None else str(task_id),
                    holder.name,
                )
        elif kind == "done":
            self._leases.release(task_id)
            self._events.append(
                SupervisorEvent(
                    kind="result",
                    task_id=task_id,
                    result=pickle.loads(data),
                    crashes=self._leases.crashes(task_id),
                )
            )
        elif kind == "error":
            # The runner let an exception escape (runners fold task
            # failures into results, so this is abnormal).  The holder
            # survives; account it like a crash so a repeat offender
            # still quarantines.
            self._leases.release(task_id)
            self._record_crash("worker-lost", task_id, str(data))

    def _record_crash(self, kind: str, task_id: Any, detail: str) -> None:
        count = self._leases.record_crash(task_id)
        tracing = self.telemetry is not None and self.telemetry.enabled
        elapsed = time.monotonic() - self._started
        if kind == "timeout":
            self._counts["timeouts"] += 1
            if tracing:
                self.telemetry.on_point_timeout(
                    elapsed, str(task_id), detail, count
                )
        else:
            self._counts["worker_lost"] += 1
            if tracing:
                self.telemetry.on_worker_lost(
                    elapsed, str(task_id), detail, count
                )
        self._events.append(
            SupervisorEvent(
                kind=kind, task_id=task_id, detail=detail, crashes=count
            )
        )
        if not self.resubmit_crashed:
            return
        if not self._leases.should_quarantine(
            task_id, self.config.quarantine_after
        ):
            self._queue(task_id)
            return
        self._counts["quarantined"] += 1
        if tracing:
            self.telemetry.on_quarantine(elapsed, str(task_id), count, detail)
        self._events.append(
            SupervisorEvent(
                kind="quarantined", task_id=task_id, detail=detail, crashes=count
            )
        )


# -- the worker side, local or remote: one heartbeat, one task body -------


class Heartbeat:
    """The callable a task's runner drives between epochs.

    *send* ships one beat (a pool pipe's or a fleet socket's send);
    :meth:`start` names the task being beaten for and sends its first
    beat at once, whatever the throttle.  Later beats are throttled to
    wall time so a fast simulation loop does not flood the wire; a send
    failure (the scheduler is gone) is swallowed -- the holder is
    dropped or the worker's own loop hits the dead connection next.
    """

    def __init__(
        self, send: Callable[[Any], None], min_interval_s: float = 0.2
    ) -> None:
        self._send = send
        self._min_interval_s = min_interval_s
        self._beat: Any = None
        # "Never beaten": the monotonic clock's origin is undefined (on
        # Linux it is boot), so no reading may be assumed far from 0.
        self._last = -math.inf

    def start(self, beat: Any) -> None:
        self._beat = beat
        self._last = -math.inf
        self()  # one immediate beat: "task received, alive"

    def __call__(self) -> None:
        now = time.monotonic()
        if now - self._last < self._min_interval_s:
            return
        self._last = now
        try:
            self._send(self._beat)
        except OSError:
            pass


def run_task(task: bytes, heartbeat: Heartbeat, beat: Any) -> tuple[str, Any]:
    """One task, on any worker: ``("done", pickled result)`` or
    ``("error", detail)``.

    *task* is what :meth:`PointSupervisor.submit` pickled: the runner
    and its payload.  Any exception (``SystemExit`` included) escaping
    the unpickling, the run or the pickling of the result is reported
    as an error and the worker survives; runners are expected to fold
    task-level failures into their result objects themselves.  An
    interrupt is not a task failure: it stops the worker.
    """
    heartbeat.start(beat)
    try:
        runner, payload = pickle.loads(task)
        result = runner(payload, heartbeat)
        return "done", pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    except (Exception, SystemExit) as error:  # report, don't die
        return "error", f"{type(error).__name__}: {error}"


# -- the local transport: bare child interpreters on duplex sockets --------


def _serve_pool(conn: Connection) -> None:
    """A pool worker's life: recv a task, run it, reply, repeat.

    What :data:`_BOOTSTRAP` runs.  Every reply echoes the task's opaque
    *tag* (task id + dispatch id), and so does every heartbeat.
    """
    heartbeat = Heartbeat(conn.send)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "exit":
            break
        _, tag, task = message
        kind, data = run_task(task, heartbeat, ("heartbeat", tag))
        try:
            conn.send((kind, tag, data))
        except OSError:
            break  # the parent is gone
    with suppress(OSError):
        conn.close()


#: what a pool worker's interpreter runs (``python -c``, the socket's
#: descriptor as its one argument): adopt the parent's ``sys.path``, so
#: callers that put ``src/`` on it work, then serve tasks.  It imports
#: nothing else -- never the caller's ``__main__`` -- so a worker costs
#: what unpickling its tasks imports.
_BOOTSTRAP = """\
import sys
from multiprocessing.connection import Connection
conn = Connection(int(sys.argv[1]))
sys.path[:] = conn.recv()
from repro.resilience.supervisor import _serve_pool
_serve_pool(conn)
"""


class _Process(subprocess.Popen):
    """A worker interpreter, with the ``multiprocessing.Process``
    surface the pool uses (``pid``, ``terminate`` and ``kill`` are
    Popen's own)."""

    def is_alive(self) -> bool:
        return self.poll() is None

    @property
    def exitcode(self) -> int | None:
        return self.poll()

    def join(self, timeout: float | None = None) -> None:
        with suppress(subprocess.TimeoutExpired):
            self.wait(timeout)


@dataclass(eq=False)
class _Worker:
    process: _Process
    conn: Connection

    @property
    def name(self) -> str:
        return f"pid {self.process.pid}"


class ProcessPoolTransport:
    """Up to *workers* child processes (:data:`_BOOTSTRAP` on one end
    of a socket pair; POSIX-only), spawned on demand and replaced when
    they die or are reaped.  Each is waited for when it is reaped or
    the pool closes, and no resource tracker is started, so no process
    outlives the pool."""

    def __init__(self, workers: int, reap_grace_s: float) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.reap_grace_s = reap_grace_s
        self.stats: dict[str, int] = {}
        self._pool: list[_Worker] = []

    def idle_holder(self, busy: Callable[[Any], Any]) -> _Worker | None:
        for worker in self._pool:
            if not busy(worker) and worker.process.is_alive():
                return worker
        if len(self._pool) < self.workers:
            return self._spawn()
        return None

    def _spawn(self) -> _Worker:
        ours, theirs = socket.socketpair()
        with ours, theirs:
            process = _Process(
                [sys.executable, "-c", _BOOTSTRAP, str(theirs.fileno())],
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
            )
            conn = Connection(ours.detach())
        worker = _Worker(process=process, conn=conn)
        self._pool.append(worker)  # reaped by close() if a send fails
        conn.send(sys.path)
        return worker

    def send(self, lease: Lease, task: bytes, reassigned: bool) -> None:
        worker = lease.holder
        try:
            worker.conn.send(("task", (lease.task_id, lease.dispatch), task))
        except OSError:
            self._reap(worker)
            raise

    def poll(self, timeout: float) -> list[Delivery]:
        deliveries: list[Delivery] = []
        if not self._pool:
            # Every task is waiting out a backoff and no worker has
            # been needed yet: sleep instead of spinning.
            time.sleep(timeout)
            return deliveries
        by_conn = {worker.conn: worker for worker in self._pool}
        for conn in connection_wait(list(by_conn), timeout=timeout):
            worker = by_conn[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    kind, (task_id, dispatch), *rest = conn.recv()
                except (EOFError, OSError):
                    break  # process death; classified just below
                deliveries.append(
                    Delivery(kind, worker, task_id, dispatch, *rest)
                )
        for worker in list(self._pool):
            if not worker.process.is_alive():
                self._pool.remove(worker)
                with suppress(OSError):
                    worker.conn.close()
                deliveries.append(Delivery(
                    "left",
                    worker,
                    data=f"worker process died "
                         f"(exitcode {worker.process.exitcode})",
                ))
        return deliveries

    def drop(self, lease: Lease, detail: str) -> None:
        if lease.holder in self._pool:
            self._reap(lease.holder)

    def _reap(self, worker: _Worker) -> None:
        self._pool.remove(worker)
        worker.process.terminate()
        worker.process.join(self.reap_grace_s)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        with suppress(OSError):
            worker.conn.close()

    def close(self) -> None:
        """Shut every worker down (ask first, then terminate, then kill)."""
        for worker in self._pool:
            if worker.process.is_alive():
                try:
                    worker.conn.send(("exit",))
                except OSError:
                    pass
        deadline = time.monotonic() + self.reap_grace_s
        for worker in list(self._pool):
            worker.process.join(max(0.0, deadline - time.monotonic()))
            self._reap(worker)
