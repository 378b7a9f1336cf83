"""Deadlock/livelock detection with structured diagnostics.

A deadlocked network does not crash an event-driven simulator -- it
just stops delivering while injection events keep the queue warm, and
a post-run :meth:`~repro.sim.timing_model.NetworkSimulator.drain`
grinds to its cycle horizon with nothing to show.  The
:class:`ProgressWatchdog` turns that silent failure mode into a loud,
inspectable one: on a configurable cycle cadence it asks "did any
packet sink since the last tick, and is there work outstanding?"; when
the answer is no-progress-but-work-waiting it records a structured
diagnostic -- per-router, per-port occupancy plus the global
accounting counters -- and (optionally) raises :class:`DeadlockError`
to abort the run.  With telemetry attached the diagnostic is also
written to the trace as a ``watchdog`` event, so ``repro obs
summarize`` can show where the packets piled up without re-running
anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WatchdogConfig:
    """When to declare a stall and what to do about it.

    Attributes:
        window_cycles: no delivery for this many cycles (while packets
            are waiting somewhere) counts as a stall.
        action: ``"record"`` collects diagnostics and lets the run
            continue (the trace shows every stalled window);
            ``"raise"`` aborts the run with :class:`DeadlockError` at
            the first stall -- the mode batch sweeps use so a deadlock
            costs one window, not a cycle horizon.
        max_snapshots: cap on stored diagnostics (the trace still
            records every fire).
        remediate: on the first stall of an episode, issue a one-shot
            recovery kick (``sim.recovery_kick()``: re-arm arbitration
            launches everywhere) and give it one more window before
            declaring deadlock.  A stall a kick cures was a lost
            wake-up, not a protocol deadlock -- the two outcomes are
            recorded separately (``remediated`` vs ``deadlocked``) so
            the distinction survives into traces and counters.  With
            ``action="raise"`` the abort happens only after a failed
            kick.
    """

    window_cycles: float = 5_000.0
    action: str = "record"
    max_snapshots: int = 8
    remediate: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.window_cycles < math.inf:
            raise ValueError("window_cycles must be finite and positive")
        if self.action not in ("record", "raise"):
            raise ValueError('action must be "record" or "raise"')
        if self.max_snapshots < 1:
            raise ValueError("max_snapshots must be positive")


class DeadlockError(RuntimeError):
    """The watchdog saw no progress with work outstanding."""

    def __init__(self, diagnostic: dict) -> None:
        self.diagnostic = diagnostic
        super().__init__(
            f"no delivery for {diagnostic['window_cycles']:.0f} cycles at "
            f"cycle {diagnostic['time']:.1f}: {diagnostic['buffered']} "
            f"buffered, {diagnostic['pending']} pending injection, "
            f"{diagnostic['in_transit']} in transit"
        )


class ProgressWatchdog:
    """Attach with ``NetworkSimulator(config, watchdog=...)``.

    The simulator drives :meth:`observe` on the configured cadence;
    this class only decides and describes.
    """

    def __init__(self, config: WatchdogConfig | None = None) -> None:
        self.config = config or WatchdogConfig()
        self.fired = 0
        self.diagnostics: list[dict] = []
        self._last_delivered: int | None = None
        #: remediation bookkeeping: kicks issued, stalls a kick cured
        #: (lost wake-ups), stalls a kick could not cure (deadlocks).
        self.remediations_attempted = 0
        self.remediated = 0
        self.deadlocked = 0
        #: per-episode kick state: None (armed), "pending" (kick
        #: issued, awaiting the grace window), "failed" (kick did not
        #: restore progress -- the stall is a real deadlock).
        self._kick_state: str | None = None

    @property
    def clean(self) -> bool:
        return self.fired == 0

    def observe(self, sim) -> dict | None:
        """One tick: fire when nothing sank but packets are waiting."""
        delivered = sim.total_delivered
        last = self._last_delivered
        self._last_delivered = delivered
        if last is None or delivered != last:
            if self._kick_state == "pending":
                # Progress resumed inside the grace window: the kick
                # cured the stall, so it was a lost wake-up.
                self.remediated += 1
                tel = sim.telemetry
                if tel.enabled:
                    tel.on_watchdog_remediation(sim.now, "remediated")
            self._kick_state = None  # re-arm for the next episode
            return None
        outstanding = (
            sim.total_buffered_packets()
            + sim.total_pending_injections()
            + sim.packets_in_transit
        )
        if outstanding == 0:
            return None
        diagnostic = self._diagnose(sim, outstanding)
        raise_now = self.config.action == "raise"
        if self.config.remediate and self._kick_state is None:
            # First stall of an episode: one-shot kick, one grace
            # window before any deadlock verdict (even in raise mode).
            self._kick_state = "pending"
            self.remediations_attempted += 1
            diagnostic["verdict"] = "kick-issued"
            kick = getattr(sim, "recovery_kick", None)
            if kick is not None:
                kick()
            raise_now = False
        elif self._kick_state == "pending":
            # The grace window elapsed with no progress: the kick did
            # not help -- this is a true protocol deadlock.
            self._kick_state = "failed"
            self.deadlocked += 1
            diagnostic["verdict"] = "deadlocked"
            tel = sim.telemetry
            if tel.enabled:
                tel.on_watchdog_remediation(sim.now, "deadlocked")
        elif self.config.remediate:
            diagnostic["verdict"] = "deadlocked"
        self.fired += 1
        if len(self.diagnostics) < self.config.max_snapshots:
            self.diagnostics.append(diagnostic)
        tel = sim.telemetry
        if tel.enabled:
            tel.on_watchdog(sim.now, diagnostic)
        if raise_now:
            raise DeadlockError(diagnostic)
        return diagnostic

    def _diagnose(self, sim, outstanding: int) -> dict:
        """The structured stall snapshot (JSON-serializable)."""
        routers = []
        for router in sim.routers:
            ports = {
                port.name: occupancy
                for port, buffer in router.buffers.items()
                if (occupancy := buffer.occupancy())
            }
            if ports:
                routers.append({
                    "node": router.node,
                    "buffered": sum(ports.values()),
                    "ports": ports,
                    "draining": router.antistarvation.draining,
                })
        routers.sort(key=lambda entry: -entry["buffered"])
        return {
            "time": sim.now,
            "window_cycles": self.config.window_cycles,
            "delivered_total": sim.total_delivered,
            "outstanding": outstanding,
            "buffered": sim.total_buffered_packets(),
            "pending": sim.total_pending_injections(),
            "in_transit": sim.packets_in_transit,
            "sinking": sim.packets_sinking,
            "routers": routers,
        }
