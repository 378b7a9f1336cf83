"""Outside-in tracing: timed wrappers the harness installs around the
layers' public entry points, and removes afterwards.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.installed`
rebinds exactly the attributes listed in :func:`_targets` -- methods on
their class, functions on their module, and the three routing functions
on ``repro.router.router``, which imported them by name -- and restores
the original objects on exit.

Two kinds of record, both kept in memory until :meth:`Tracer.dump`:

* *coarse spans* (run, workload, pass, point, phase) are kept one by one
  with name, start, end, the id of the span that contains them and the
  identifier of the point they belong to;
* *hot calls* (millions per point) are aggregated per (point, name) into
  a call count, inclusive time and self time.  A stack of open calls
  lets each call subtract the time its wrapped callees took, so self
  time is duration minus children and the self times under one
  ``sim.run`` add up to its inclusive time.

The clock is ``time.perf_counter_ns``: monotonic wall time, integer
nanoseconds (so a self time can never come out negative from rounding).
Span times therefore include whatever the host did to the process
meanwhile; use them as shares of one run, not as CPU-seconds.

Supervised sweep workers are separate (spawned) processes and run
unwrapped; only the parent side of that workload is traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

import repro.kernels.batch
import repro.router.router
from repro.coherence.protocol import CoherenceEngine
from repro.core.antistarvation import AntiStarvationTracker
from repro.core.base import Arbiter
from repro.network.topology import Torus2D
from repro.obs.sink import JsonlSink
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.supervisor import PointSupervisor
from repro.router.buffers import InputBuffer
from repro.router.router import Router
from repro.sim.engine import EventQueue
from repro.sim.standalone import StandaloneRouterModel
from repro.sim.timing_model import NetworkSimulator

_clock = time.perf_counter_ns


class CallStats:
    """Aggregate of one wrapped name inside one point."""

    __slots__ = ("calls", "total_ns", "self_ns", "nones", "units_in", "units_out")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        #: calls that returned None (a futile nominate, a throttled miss)
        self.nones = 0
        #: sizes of what went in / came out, where a target measures them
        self.units_in = 0
        self.units_out = 0

    def add(self, other: "CallStats") -> None:
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in self.__slots__}


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _launch_size(args, kwargs) -> int:
    launch = kwargs["launch"] if "launch" in kwargs else args[2]
    return len(launch.nominations)


def _nominations_size(args, kwargs) -> int:
    nominations = kwargs["nominations"] if "nominations" in kwargs else args[1]
    return len(nominations)


def _is_failure_event(event) -> int:
    return int(event.kind != "result")


def _targets() -> list[tuple[object, str, str, object, object]]:
    """(owner, attribute, span name, size of input, size of result)."""
    router_module = repro.router.router
    targets = [
        (NetworkSimulator, "run", "sim.run", None, None),
        (StandaloneRouterModel, "run", "sim.run", None, None),
        (EventQueue, "schedule_at", "sim.engine.schedule", None, None),
        (Router, "nominate", "router.nominate", None, None),
        (Router, "resolve", "router.resolve", _launch_size, len),
        (router_module, "adaptive_candidates", "network.routing", None, None),
        (router_module, "dimension_order_direction", "network.routing", None, None),
        (router_module, "escape_vc_after_hop", "network.routing", None, None),
        (Torus2D, "neighbor", "network.routing", None, None),
        (AntiStarvationTracker, "classify", "core.classify", _nominations_size, None),
        (CoherenceEngine, "try_start_transaction", "coherence.start", None, None),
        (CoherenceEngine, "on_packet_delivered", "coherence.delivered", None, None),
        (JsonlSink, "emit", "obs.sink_emit", None, None),
        (SweepJournal, "record_success", "resilience.journal_record", None, None),
        (PointSupervisor, "submit", "resilience.supervisor_submit", None, None),
        (PointSupervisor, "next_event", "resilience.supervisor_wait",
         None, _is_failure_event),
        (repro.kernels.batch, "run_batched", "kernels.run_batched", None, None),
    ]
    for name, member in vars(InputBuffer).items():
        if inspect.isfunction(member) and not name.startswith("_"):
            targets.append((InputBuffer, name, "router.buffer", None, None))
    for cls in _all_subclasses(Arbiter):
        if inspect.isfunction(vars(cls).get("arbitrate")):
            targets.append((cls, "arbitrate", "core.arbitrate", None, len))
    return targets


class Tracer:
    """Collects spans and call aggregates for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: (point, name) -> aggregate, filled when a point span closes
        self.calls: dict[tuple[str, str], CallStats] = {}
        self._open: list[int] = []
        self._point = ""
        self._point_began = 0
        self._current: dict[str, CallStats] = {}
        #: one child-time accumulator per open hot call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- coarse spans ------------------------------------------------------

    @contextmanager
    def span(self, name: str, point: str | None = None):
        """One individually kept span; *point* opens a new aggregation scope."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "point": point if point is not None else self._point,
            "start_ns": _clock(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        outer = (self._point, self._current)
        if point is not None:
            self._point, self._current = point, {}
        try:
            yield record
        finally:
            record["end_ns"] = _clock()
            self._open.pop()
            if point is not None:
                self._flush()
                self._point, self._current = outer

    @contextmanager
    def points(self, first: str):
        """A run of back-to-back point scopes, advanced by :meth:`next_point`.

        For code that runs many points inside one call and only tells
        the caller as each one ends (``sweep_algorithms(progress=...)``).
        """
        outer = (self._point, self._current)
        self._point, self._current, self._point_began = first, {}, _clock()
        try:
            yield
        finally:
            self._close_point(_clock())
            self._point, self._current = outer

    def next_point(self, point: str) -> None:
        """Inside :meth:`points`: the current point ended, *point* began."""
        now = _clock()
        self._close_point(now)
        self._point, self._point_began = point, now

    def _close_point(self, now: int) -> None:
        self.spans.append({
            "id": len(self.spans),
            "name": "point",
            "parent": self._open[-1] if self._open else None,
            "point": self._point,
            "start_ns": self._point_began,
            "end_ns": now,
        })
        self._flush()

    def _flush(self) -> None:
        for name, stats in self._current.items():
            key = (self._point, name)
            if key in self.calls:
                self.calls[key].add(stats)
            else:
                self.calls[key] = stats
        self._current = {}

    # -- hot calls ---------------------------------------------------------

    def _timed(self, function, name: str, size_in, size_out):
        tracer = self
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stats = tracer._current.get(name)
            if stats is None:
                stats = tracer._current[name] = CallStats()
            stack.append(0)
            began = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = _clock() - began
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
            if result is None:
                stats.nones += 1
            elif size_out is not None:
                stats.units_out += size_out(result)
            if size_in is not None:
                stats.units_in += size_in(args, kwargs)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for owner, attribute, name, size_in, size_out in _targets():
                original = vars(owner)[attribute]
                self._patches.append((owner, attribute, original))
                setattr(
                    owner, attribute, self._timed(original, name, size_in, size_out)
                )
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)

    # -- reading back ------------------------------------------------------

    def total(self, name: str, points=None) -> CallStats:
        """Sum of one name's aggregates over *points* (default: all)."""
        result = CallStats()
        for (point, call_name), stats in self.calls.items():
            if call_name == name and (points is None or point in points):
                result.add(stats)
        return result

    def per_point(self, name: str) -> dict[str, CallStats]:
        return {
            point: stats
            for (point, call_name), stats in self.calls.items()
            if call_name == name
        }

    def dump(self, path: Path) -> None:
        document = {
            "clock": "time.perf_counter_ns",
            "spans": self.spans,
            "calls": [
                {"point": point, "name": name, **stats.as_dict()}
                for (point, name), stats in self.calls.items()
            ],
        }
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
