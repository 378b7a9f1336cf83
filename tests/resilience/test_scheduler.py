"""Scheduler policy, pinned once against a transport that spawns nothing.

:class:`PointSupervisor` owns every dispatch decision -- backoff
ordering, resubmit vs terminal crash, quarantine, the exactly-once
``(dispatch, holder)`` check, what a failed hand-off means -- and
reaches holders only through a transport.  :class:`ScriptedTransport`
answers each hand-off from a per-task script, in memory, so these
tests pin the policy without processes or sockets; what is specific to
a transport (SIGKILL/wedge reaping, framing, kick-on-expiry) stays in
``test_supervisor.py`` and ``tests/service/test_coordinator.py``.
"""

import pickle
import time
from collections import deque

import pytest

from repro.resilience.supervisor import (
    Delivery,
    PointSupervisor,
    SupervisorConfig,
)

FAST_POLL = dict(poll_interval_s=0.01)


class Holder:
    def __init__(self, name: str) -> None:
        self.name = name


class ScriptedTransport:
    """Each hand-off of a task pops that task's next scripted action.

    Actions: ``("done", value)``, ``("error", detail)``, ``("left",)``
    (the holder vanishes and is replaced), ``("silent",)`` (never
    answers), ``("refuse",)`` (the hand-off itself raises ``OSError``
    and the holder is replaced), ``("stale", value)`` (answers with a
    superseded dispatch id) and ``("impostor", value)`` (the right
    dispatch id from a holder that does not hold the lease).
    """

    def __init__(self, script: dict, holders: int = 1) -> None:
        self.script = {task: deque(actions) for task, actions in script.items()}
        self.stats: dict[str, int] = {}
        self.holders = [Holder(f"h{n}") for n in range(holders)]
        self.sent: list[tuple] = []  # (task_id, reassigned, monotonic time)
        self.tasks: list[bytes] = []  # the bytes each hand-off carried
        self.dropped: list[tuple] = []  # (task_id, detail)
        self.timeouts: list[float] = []
        self.closed = 0
        self._pending: list[Delivery] = []

    def _replace(self, holder: Holder) -> None:
        self.holders.remove(holder)
        self.holders.append(Holder(f"{holder.name}'"))

    def idle_holder(self, busy):
        for holder in self.holders:
            if not busy(holder):
                return holder
        return None

    def send(self, lease, task, reassigned) -> None:
        action, *args = self.script[lease.task_id].popleft()
        holder, task_id, dispatch = lease.holder, lease.task_id, lease.dispatch
        if action == "refuse":
            self._replace(holder)
            raise OSError("holder died between idle and send")
        self.sent.append((task_id, reassigned, time.monotonic()))
        self.tasks.append(task)
        if action in ("done", "stale", "impostor"):
            # What a worker's run_task replies: the pickled result.
            args = [pickle.dumps(value) for value in args]
        if action in ("done", "error"):
            self._pending.append(
                Delivery(action, holder, task_id, dispatch, *args)
            )
        elif action == "left":
            self._replace(holder)
            self._pending.append(Delivery("left", holder, data="holder gone"))
        elif action == "stale":
            self._pending.append(
                Delivery("done", holder, task_id, dispatch - 1, *args)
            )
        elif action == "impostor":
            self._pending.append(
                Delivery("done", Holder("impostor"), task_id, dispatch, *args)
            )
        else:
            assert action == "silent", action

    def poll(self, timeout: float):
        self.timeouts.append(timeout)
        if not self._pending:
            time.sleep(timeout)
        deliveries, self._pending = self._pending, []
        return deliveries

    def drop(self, lease, detail: str) -> None:
        self.dropped.append((lease.task_id, detail))
        self._replace(lease.holder)

    def close(self) -> None:
        self.closed += 1


def drain(supervisor) -> list:
    events = []
    while supervisor.outstanding:
        events.append(supervisor.next_event())
    return events


def echo(payload, heartbeat):
    """A runner the scripted holders never call; it only gets pickled."""
    return payload


def schedule(script, holders=1, resubmit_crashed=True, **config):
    transport = ScriptedTransport(script, holders=holders)
    supervisor = PointSupervisor(
        echo,
        transport,
        SupervisorConfig(**{**FAST_POLL, **config}),
        resubmit_crashed=resubmit_crashed,
    )
    return supervisor, transport


class TestDispatchOrder:
    def test_delayed_task_waits_while_later_submissions_run(self):
        supervisor, transport = schedule(
            {"slow": [("done", 1)], "now": [("done", 2)]}
        )
        submitted = time.monotonic()
        supervisor.submit("slow", "payload", delay_s=0.15)
        supervisor.submit("now", "payload")
        events = drain(supervisor)
        assert [e.task_id for e in events] == ["now", "slow"]
        sent_at = {task: at for task, _, at in transport.sent}
        assert sent_at["slow"] - submitted >= 0.15
        assert sent_at["now"] - submitted < 0.15
        # Waiting out a backoff never degenerates into a busy spin.
        assert min(transport.timeouts) > 0.0

    def test_equal_delays_dispatch_in_submission_order(self):
        tasks = ["a", "b", "c"]
        supervisor, transport = schedule(
            {task: [("done", task)] for task in tasks}
        )
        for task in tasks:
            supervisor.submit(task, "payload")
        drain(supervisor)
        assert [task for task, _, _ in transport.sent] == tasks

    def test_no_idle_holder_leaves_the_task_queued(self):
        supervisor, transport = schedule(
            {"a": [("done", 1)], "b": [("done", 2)]}, holders=1
        )
        supervisor.submit("a", "payload")
        supervisor.submit("b", "payload")
        first = supervisor.next_event()
        assert first.task_id == "a"
        assert [task for task, _, _ in transport.sent] == ["a"]
        assert [e.task_id for e in drain(supervisor)] == ["b"]


class TestCrashPolicy:
    def test_crash_is_resubmitted_until_it_lands(self):
        supervisor, transport = schedule(
            {"t": [("error", "ValueError: boom"), ("done", "ok")]}
        )
        supervisor.submit("t", "payload")
        events = drain(supervisor)
        assert [e.kind for e in events] == ["worker-lost", "result"]
        assert events[0].detail == "ValueError: boom"
        assert (events[1].result, events[1].crashes) == ("ok", 1)
        assert [retry for _, retry, _ in transport.sent] == [False, True]

    def test_crash_is_terminal_without_resubmit(self):
        supervisor, transport = schedule(
            {"t": [("left",)]}, resubmit_crashed=False
        )
        supervisor.submit("t", "payload")
        [event] = drain(supervisor)
        assert (event.kind, event.detail) == ("worker-lost", "holder gone")
        assert len(transport.sent) == 1
        assert supervisor.stats["worker_lost"] == 1
        assert supervisor.stats["quarantined"] == 0

    def test_quarantined_after_k_crashes(self):
        supervisor, transport = schedule(
            {"poison": [("left",), ("error", "boom"), ("done", "never")]},
            quarantine_after=2,
        )
        supervisor.submit("poison", "payload")
        events = drain(supervisor)
        assert [e.kind for e in events] == [
            "worker-lost", "worker-lost", "quarantined",
        ]
        assert events[-1].crashes == 2
        assert len(transport.sent) == 2  # the third hand-off never happens
        assert supervisor.stats["quarantined"] == 1

    def test_expired_lease_drops_the_holder(self):
        supervisor, transport = schedule(
            {"t": [("silent",)]},
            resubmit_crashed=False,
            heartbeat_stale_s=0.05,
        )
        supervisor.submit("t", "payload")
        [event] = drain(supervisor)
        assert event.kind == "timeout"
        assert transport.dropped == [("t", event.detail)]
        assert "heartbeat stale" in event.detail
        assert supervisor.stats["timeouts"] == 1
        assert supervisor.stats["respawns"] == 1


class TestExactlyOnce:
    @pytest.mark.parametrize("forgery", ["stale", "impostor"])
    def test_delivery_off_the_live_lease_is_discarded(self, forgery):
        """A superseded dispatch id, or the right id from the wrong
        holder, never becomes an event; the lease stays open until its
        own holder answers (here: until it expires and is re-granted)."""
        supervisor, transport = schedule(
            {"t": [(forgery, "FORGED"), ("done", "live")]},
            heartbeat_stale_s=0.05,
        )
        supervisor.submit("t", "payload")
        events = drain(supervisor)
        assert [e.kind for e in events] == ["timeout", "result"]
        assert events[1].result == "live"
        assert supervisor.stats["duplicates"] == 1


class TestFailedHandOff:
    def test_refused_hand_off_is_requeued_not_a_crash(self):
        """A holder that dies between ``idle`` and ``send`` never ran
        the task: the crash count (and so quarantine) must not move."""
        supervisor, transport = schedule(
            {"t": [("refuse",), ("refuse",), ("done", "ok")]},
            quarantine_after=1,
        )
        supervisor.submit("t", "payload")
        [event] = drain(supervisor)
        assert (event.kind, event.result, event.crashes) == ("result", "ok", 0)
        assert supervisor.stats["worker_lost"] == 0
        assert supervisor.stats["quarantined"] == 0
        # The only hand-off that arrived was a first grant, not a retry.
        assert [retry for _, retry, _ in transport.sent] == [False]


class TestTasks:
    def test_every_hand_off_ships_the_bytes_pickled_at_submit(self):
        """The scheduler owns the runner: it travels with the payload,
        pickled once, and a retry re-sends the very same bytes."""
        supervisor, transport = schedule(
            {"t": [("error", "boom"), ("done", "ok")]}
        )
        supervisor.submit("t", {"rate": 0.01})
        drain(supervisor)
        first, retry = transport.tasks
        assert first is retry
        assert pickle.loads(first) == (echo, {"rate": 0.01})

    def test_unpicklable_payload_fails_at_submit(self):
        supervisor, transport = schedule({})
        with pytest.raises(Exception, match="pickle"):
            supervisor.submit("t", lambda: None)
        assert not supervisor.outstanding
        assert transport.sent == []


class TestLifecycle:
    def test_close_closes_the_transport_and_refuses_work(self):
        supervisor, transport = schedule({})
        with supervisor:
            pass
        supervisor.close()
        assert transport.closed == 1
        with pytest.raises(RuntimeError):
            supervisor.submit("t", "payload")
