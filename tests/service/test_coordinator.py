"""The fleet transport: leasing, dedup, reassignment, expiry, quarantine.

These tests script the worker side of the protocol by hand (a raw
:func:`connect` channel speaking hello/result/error frames) so every
coordinator decision -- which frame is live, which is stale, who gets
kicked -- is pinned against exact wire traffic rather than whatever a
real worker happens to do.  The coordinator only schedules while its
event loop pumps, so each test drains it on a background thread and
plays the worker from the main one.
"""

import pickle
import threading
import time

import pytest

from repro.resilience.supervisor import PointSupervisor, SupervisorConfig
from repro.service.coordinator import FleetTransport
from repro.service.protocol import connect, decode_payload, encode_payload
from repro.service.server import ServiceServer

FAST_POLL = dict(poll_interval_s=0.02, reap_grace_s=2.0)


def echo(payload, heartbeat):
    """The scheduler's runner; scripted workers only unpickle it."""
    return payload


def fleet_scheduler(server, config, resubmit_crashed=True):
    """The scheduler over *server*'s joined workers."""
    return PointSupervisor(
        echo, FleetTransport(server), config, resubmit_crashed=resubmit_crashed
    )


class ScriptedWorker:
    """A hand-driven fleet member: joins, then obeys the test."""

    def __init__(self, server: ServiceServer, name: str) -> None:
        self.channel = connect(server.host, server.port)
        self.channel.send({"type": "hello", "name": name})
        welcome = self.channel.recv()
        assert welcome["type"] == "welcome"
        self.session = welcome["session"]

    def take_task(self) -> dict:
        frame = self.channel.recv()
        assert frame is not None and frame["type"] == "task", frame
        return frame

    def deliver(self, task: dict, result, dispatch=None) -> None:
        self.channel.send({
            "type": "result",
            "token": task["token"],
            "dispatch": task["dispatch"] if dispatch is None else dispatch,
            "payload": encode_payload(pickle.dumps(result)),
        })

    def fail(self, task: dict, detail: str) -> None:
        self.channel.send({
            "type": "error",
            "token": task["token"],
            "dispatch": task["dispatch"],
            "detail": detail,
        })

    def close(self) -> None:
        self.channel.close()


class Drain:
    """Drive ``next_event`` on a thread; the main thread scripts the wire.

    Start *after* the first ``submit`` (an idle coordinator has nothing
    outstanding and the drain would end immediately).
    """

    def __init__(self, coordinator) -> None:
        self.events = []
        self.error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, args=(coordinator,))
        self._thread.daemon = True
        self._thread.start()

    def _run(self, coordinator) -> None:
        try:
            while coordinator.outstanding:
                self.events.append(coordinator.next_event())
        except BaseException as error:  # surfaced by wait()
            self.error = error

    def wait(self, timeout_s: float = 30.0) -> list:
        self._thread.join(timeout_s)
        assert not self._thread.is_alive(), "coordinator drain hung"
        if self.error is not None:
            raise self.error
        return self.events


@pytest.fixture
def server():
    with ServiceServer() as server:
        yield server


def wait_for_roster(server, count, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while len(server.workers) < count:
        assert time.monotonic() < deadline, "worker never joined the roster"
        time.sleep(0.01)


class TestDispatchAndDelivery:
    def test_task_frame_round_trip(self, server):
        worker = ScriptedWorker(server, "w0")
        wait_for_roster(server, 1)
        with fleet_scheduler(
            server, SupervisorConfig(**FAST_POLL)
        ) as coordinator:
            coordinator.submit(("PIM1", "0.01"), {"rate": 0.01})
            drain = Drain(coordinator)
            task = worker.take_task()
            # The task carries the scheduler's runner; no task kind.
            assert set(task) == {"type", "token", "dispatch", "payload"}
            runner, payload = pickle.loads(decode_payload(task["payload"]))
            assert (runner, payload) == (echo, {"rate": 0.01})
            worker.deliver(task, "the-answer")
            [event] = drain.wait()
        assert event.kind == "result"
        assert event.task_id == ("PIM1", "0.01")
        assert event.result == "the-answer"
        assert coordinator.stats["leases"] == 1
        assert coordinator.stats["duplicates"] == 0
        worker.close()

    def test_submit_after_close_is_refused(self, server):
        coordinator = fleet_scheduler(server, SupervisorConfig(**FAST_POLL))
        coordinator.close()
        with pytest.raises(RuntimeError):
            coordinator.submit("t", 1)

    def test_stale_dispatch_is_discarded_not_recorded(self, server):
        """The exactly-once core: a result stamped with a superseded
        dispatch id never becomes an event."""
        worker = ScriptedWorker(server, "w0")
        wait_for_roster(server, 1)
        with fleet_scheduler(
            server, SupervisorConfig(**FAST_POLL)
        ) as coordinator:
            coordinator.submit("t", "payload")
            drain = Drain(coordinator)
            task = worker.take_task()
            worker.deliver(task, "STALE", dispatch=task["dispatch"] + 1)
            worker.deliver(task, "live")
            [event] = drain.wait()
        assert event.result == "live"
        assert coordinator.stats["duplicates"] == 1
        worker.close()

    def test_unknown_token_is_discarded(self, server):
        worker = ScriptedWorker(server, "w0")
        wait_for_roster(server, 1)
        with fleet_scheduler(
            server, SupervisorConfig(**FAST_POLL)
        ) as coordinator:
            coordinator.submit("t", "payload")
            drain = Drain(coordinator)
            task = worker.take_task()
            worker.channel.send({
                "type": "result",
                "token": "0000-999",  # another coordinator's token
                "dispatch": task["dispatch"],
                "payload": encode_payload(pickle.dumps("ghost")),
            })
            worker.deliver(task, "live")
            [event] = drain.wait()
        assert event.result == "live"
        assert coordinator.stats["duplicates"] == 1
        worker.close()

    def test_sequential_coordinators_share_one_fleet(self, server):
        """close() leaves the server (and roster) alive: the next
        sweep's coordinator reuses the same connected workers."""
        worker = ScriptedWorker(server, "w0")
        wait_for_roster(server, 1)
        for round_no in range(2):
            with fleet_scheduler(
                server, SupervisorConfig(**FAST_POLL)
            ) as coordinator:
                coordinator.submit("t", round_no)
                drain = Drain(coordinator)
                task = worker.take_task()
                worker.deliver(task, round_no * 10)
                [event] = drain.wait()
            assert event.result == round_no * 10
        assert len(server.workers) == 1
        worker.close()


class TestCrashHandling:
    def test_disconnect_mid_lease_reassigns_to_survivor(self, server):
        first = ScriptedWorker(server, "doomed")
        wait_for_roster(server, 1)
        second = ScriptedWorker(server, "survivor")
        wait_for_roster(server, 2)
        with fleet_scheduler(
            server, SupervisorConfig(**FAST_POLL), resubmit_crashed=True
        ) as coordinator:
            coordinator.submit("t", "payload")
            drain = Drain(coordinator)
            task = first.take_task()
            first.close()  # dies mid-task
            retry = second.take_task()
            assert retry["dispatch"] > task["dispatch"]
            second.deliver(retry, "recovered")
            events = drain.wait()
        assert [e.kind for e in events] == ["worker-lost", "result"]
        assert "disconnected mid-task" in events[0].detail
        assert events[1].result == "recovered"
        assert coordinator.stats["worker_lost"] == 1
        assert coordinator.stats["reassignments"] == 1
        second.close()

    def test_error_frame_is_a_worker_lost_crash(self, server):
        worker = ScriptedWorker(server, "w0")
        wait_for_roster(server, 1)
        with fleet_scheduler(
            server, SupervisorConfig(**FAST_POLL), resubmit_crashed=False
        ) as coordinator:
            coordinator.submit("t", "payload")
            drain = Drain(coordinator)
            task = worker.take_task()
            worker.fail(task, "ValueError: boom")
            [event] = drain.wait()
        assert event.kind == "worker-lost"
        assert event.detail == "ValueError: boom"
        worker.close()

    def test_poison_task_quarantined_after_k_crashes(self, server):
        worker = ScriptedWorker(server, "w0")
        wait_for_roster(server, 1)
        config = SupervisorConfig(quarantine_after=2, **FAST_POLL)
        with fleet_scheduler(
            server, config, resubmit_crashed=True
        ) as coordinator:
            coordinator.submit("poison", "payload")
            drain = Drain(coordinator)
            for _ in range(2):
                task = worker.take_task()
                worker.fail(task, "RuntimeError: dies every time")
            events = drain.wait()
        assert [e.kind for e in events] == [
            "worker-lost", "worker-lost", "quarantined",
        ]
        assert events[-1].crashes == 2
        assert coordinator.stats["quarantined"] == 1
        worker.close()


class TestLeaseExpiry:
    def test_silent_worker_is_kicked_on_stale_heartbeat(self, server):
        worker = ScriptedWorker(server, "wedged")
        wait_for_roster(server, 1)
        config = SupervisorConfig(
            point_timeout_s=60.0, heartbeat_stale_s=0.4, **FAST_POLL
        )
        with fleet_scheduler(
            server, config, resubmit_crashed=False
        ) as coordinator:
            coordinator.submit("t", "payload")
            started = time.monotonic()
            drain = Drain(coordinator)
            worker.take_task()  # ...and then never heartbeat
            [event] = drain.wait()
            elapsed = time.monotonic() - started
        assert event.kind == "timeout"
        assert "heartbeat stale" in event.detail
        assert elapsed < 10.0, "expiry must not wait for the deadline"
        assert coordinator.stats["timeouts"] == 1
        # The remote analogue of reaping: the connection was dropped.
        assert worker.channel.recv() is None

    def test_heartbeats_hold_the_lease_open(self, server):
        worker = ScriptedWorker(server, "chatty")
        wait_for_roster(server, 1)
        config = SupervisorConfig(
            point_timeout_s=60.0, heartbeat_stale_s=0.6, **FAST_POLL
        )
        with fleet_scheduler(
            server, config, resubmit_crashed=False
        ) as coordinator:
            coordinator.submit("t", "payload")
            drain = Drain(coordinator)
            task = worker.take_task()
            for _ in range(6):  # stay slow but chatty past the bound
                time.sleep(0.25)
                worker.channel.send({
                    "type": "heartbeat",
                    "token": task["token"],
                    "dispatch": task["dispatch"],
                })
            worker.deliver(task, "slow but alive")
            [event] = drain.wait()
        assert event.kind == "result"
        assert event.result == "slow but alive"
        assert coordinator.stats["timeouts"] == 0
        worker.close()
