"""The worker side every holder shares: one task body, one heartbeat.

A pool worker and a fleet worker differ only in how bytes reach them;
both run a task with :func:`run_task` and beat with :class:`Heartbeat`.
These tests pin both in memory, without processes or sockets; that the
two transports really do use them (same replies, same details) is
pinned end to end in ``tests/service/test_fleet.py``.
"""

import pickle

import pytest

from repro.resilience.supervisor import Heartbeat, run_task


def square(payload, heartbeat):
    heartbeat()
    return payload * payload


def boom(payload, heartbeat):
    raise ValueError(f"boom {payload}")


def unpicklable_result(payload, heartbeat):
    return lambda: payload


def exits(payload, heartbeat):
    raise SystemExit(3)


def interrupted(payload, heartbeat):
    raise KeyboardInterrupt


def task(runner, payload):
    return pickle.dumps((runner, payload))


class Wire:
    """A send callable that records what it shipped."""

    def __init__(self, fail: bool = False) -> None:
        self.sent = []
        self.fail = fail

    def __call__(self, message) -> None:
        if self.fail:
            raise OSError("peer gone")
        self.sent.append(message)


class TestRunTask:
    def test_done_carries_the_pickled_result(self):
        wire = Wire()
        kind, data = run_task(task(square, 7), Heartbeat(wire), "beat")
        assert kind == "done"
        assert pickle.loads(data) == 49

    @pytest.mark.parametrize(
        "runner, detail",
        [
            (boom, "ValueError: boom 7"),
            (exits, "SystemExit: 3"),
        ],
    )
    def test_escaping_exception_is_an_error_detail(self, runner, detail):
        assert run_task(task(runner, 7), Heartbeat(Wire()), "beat") == (
            "error", detail,
        )

    def test_an_interrupt_stops_the_worker(self):
        with pytest.raises(KeyboardInterrupt):
            run_task(task(interrupted, 7), Heartbeat(Wire()), "beat")

    def test_unpicklable_result_is_an_error_not_a_dead_worker(self):
        kind, detail = run_task(
            task(unpicklable_result, 7), Heartbeat(Wire()), "beat"
        )
        assert kind == "error"
        assert "pickle" in detail.lower()

    def test_undecodable_task_is_an_error(self):
        kind, detail = run_task(b"not a pickle", Heartbeat(Wire()), "beat")
        assert kind == "error"
        assert detail.startswith("UnpicklingError")

    def test_the_task_is_announced_before_it_runs(self):
        """A task that cannot even load still beats once: the
        scheduler hears "received, alive" from every task."""
        wire = Wire()
        run_task(b"not a pickle", Heartbeat(wire), ("heartbeat", "t-1"))
        assert wire.sent == [("heartbeat", "t-1")]


class TestHeartbeat:
    def test_start_beats_once_then_throttles(self):
        wire = Wire()
        heartbeat = Heartbeat(wire, min_interval_s=3600.0)
        heartbeat.start("first")
        heartbeat()
        heartbeat()
        assert wire.sent == ["first"]
        # A new task beats at once, whatever the throttle says.
        heartbeat.start("second")
        assert wire.sent == ["first", "second"]

    def test_first_beat_ignores_where_the_clock_starts(self, monkeypatch):
        """The monotonic clock's origin is undefined (on Linux: boot), so
        a reading below the throttle must not swallow the first beat."""
        monkeypatch.setattr(
            "repro.resilience.supervisor.time.monotonic", lambda: 0.05
        )
        sent = []
        run_task(b"not a pickle", Heartbeat(sent.append), "beat")
        assert sent == ["beat"]

    def test_beats_name_the_current_task(self):
        wire = Wire()
        heartbeat = Heartbeat(wire, min_interval_s=0.0)
        heartbeat.start({"type": "heartbeat", "token": "a", "dispatch": 1})
        heartbeat()
        assert wire.sent == [
            {"type": "heartbeat", "token": "a", "dispatch": 1}
        ] * 2

    def test_send_failure_is_swallowed(self):
        heartbeat = Heartbeat(Wire(fail=True), min_interval_s=0.0)
        heartbeat.start("beat")
        heartbeat()  # no raise: the scheduler notices the silence
