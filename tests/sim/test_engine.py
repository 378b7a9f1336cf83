"""Unit tests for the event-driven simulation kernel."""

import pytest

from repro.sim.engine import EventQueue


class TestScheduling:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        log = []
        queue.schedule_at(5.0, lambda: log.append("late"))
        queue.schedule_at(1.0, lambda: log.append("early"))
        queue.schedule_at(3.0, lambda: log.append("middle"))
        queue.run_until(10.0)
        assert log == ["early", "middle", "late"]

    def test_ties_break_in_insertion_order(self):
        queue = EventQueue()
        log = []
        for tag in ("a", "b", "c"):
            queue.schedule_at(2.0, lambda tag=tag: log.append(tag))
        queue.run_until(10.0)
        assert log == ["a", "b", "c"]

    def test_run_until_respects_horizon(self):
        queue = EventQueue()
        log = []
        queue.schedule_at(1.0, lambda: log.append("in"))
        queue.schedule_at(9.0, lambda: log.append("out"))
        queue.run_until(5.0)
        assert log == ["in"]
        assert queue.now == 5.0
        assert queue.pending == 1

    def test_events_may_schedule_events(self):
        queue = EventQueue()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                queue.schedule_after(1.0, lambda: chain(n + 1))

        queue.schedule_at(0.0, lambda: chain(0))
        queue.run_until(10.0)
        assert log == [0, 1, 2, 3]

    def test_now_advances_with_events(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(2.5, lambda: seen.append(queue.now))
        queue.run_until(4.0)
        assert seen == [2.5]

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule_at(1.0, lambda: None)
        queue.run_until(5.0)
        with pytest.raises(ValueError):
            queue.schedule_at(2.0, lambda: None)
        with pytest.raises(ValueError):
            queue.schedule_after(-1.0, lambda: None)

    def test_run_until_idle_drains_everything(self):
        queue = EventQueue()
        log = []
        queue.schedule_at(100.0, lambda: log.append("far"))
        queue.run_until_idle()
        assert log == ["far"]
        assert queue.pending == 0

    def test_same_time_recursive_events_allowed(self):
        queue = EventQueue()
        log = []
        queue.schedule_at(1.0, lambda: queue.schedule_at(1.0, lambda: log.append("x")))
        queue.run_until(2.0)
        assert log == ["x"]


class TestNonFiniteTimes:
    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.schedule_at(float("nan"), lambda: None)

    def test_infinite_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.schedule_at(float("inf"), lambda: None)

    def test_nan_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.schedule_after(float("nan"), lambda: None)

    def test_infinite_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.schedule_after(float("inf"), lambda: None)

    @pytest.mark.parametrize("method, value, message", [
        ("schedule_at", float("nan"), "event time must be finite, got nan"),
        ("schedule_at", float("inf"), "event time must be finite, got inf"),
        ("schedule_at", float("-inf"), "event time must be finite, got -inf"),
        ("schedule_at", 2.0, "cannot schedule at 2.0 before now=5.0"),
        ("schedule_after", float("nan"), "delay must be finite, got nan"),
        ("schedule_after", float("inf"), "delay must be finite, got inf"),
        ("schedule_after", float("-inf"), "delay must be finite, got -inf"),
        ("schedule_after", -1.0, "delay cannot be negative"),
    ])
    def test_rejection_names_the_fault_and_leaves_the_queue_untouched(
        self, method, value, message
    ):
        queue = EventQueue()
        queue.schedule_at(9.0, lambda: None)
        queue.run_until(5.0)
        heap, sequence = list(queue._heap), queue._sequence
        with pytest.raises(ValueError) as caught:
            getattr(queue, method)(value, lambda: None)
        assert str(caught.value) == message
        assert (queue._heap, queue._sequence) == (heap, sequence)

    def test_the_present_and_a_zero_delay_are_accepted(self):
        queue = EventQueue()
        queue.run_until(5.0)
        queue.schedule_at(5.0, lambda: None)
        queue.schedule_after(0.0, lambda: None)
        assert [entry[:2] for entry in queue._heap] == [(5.0, 0), (5.0, 1)]

    def test_queue_unchanged_after_rejection(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule_at(float("nan"), lambda: None)
        assert queue.pending == 0
        queue.schedule_at(1.0, lambda: None)  # still usable
        queue.run_until_idle()
        assert queue.now == 1.0
