"""Runtime invariant checking for the simulators.

:class:`InvariantChecker` attaches to a
:class:`~repro.sim.timing_model.NetworkSimulator` and re-verifies, on a
configurable cycle cadence plus once at the end of the run, the
properties the paper's conclusions silently depend on:

* **packet conservation** -- every packet ever injected is delivered,
  dropped with a recorded reason, or still accounted for (buffered in
  a router, waiting in an injection queue, in transit on a link, or
  sinking at a local port).  Nothing silently vanishes, nothing is
  double-counted;
* **no duplicate in-flight ids** -- a packet uid occupies at most one
  buffer slot network-wide (virtual cut-through: the whole packet
  lives in one place);
* **buffer-credit sanity** -- per virtual channel, occupancy and
  outstanding reservations are non-negative and never exceed the
  partition's capacity (credit flow control cannot go negative);
* **anti-starvation age bound** -- no buffered packet has waited at
  one router longer than the configured bound, which the two-color
  draining scheme is supposed to guarantee.

Violations are recorded (and emitted as telemetry events when a sink
is attached); with ``fail_fast`` they raise
:class:`InvariantViolationError` at the offending cycle, which is the
mode the test suite and CI smoke jobs run in.

:class:`ArbitrationInvariants` is the standalone-model counterpart: a
per-trial matching validator around
:func:`repro.core.types.validate_matching`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from repro.core.types import Grant, Nomination, validate_matching


@dataclass(frozen=True)
class InvariantConfig:
    """Cadence and strictness of the runtime checks.

    Attributes:
        check_interval_cycles: cycles between periodic sweeps; the
            final check at the end of the run always happens.
        max_wait_cycles: anti-starvation bound -- the longest a packet
            may wait at a single router.  None disables the age check
            (e.g. for runs with anti-starvation ablated).
        fail_fast: raise :class:`InvariantViolationError` at the first
            violation instead of collecting them.
    """

    check_interval_cycles: float = 1_000.0
    max_wait_cycles: float | None = 200_000.0
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.check_interval_cycles < math.inf:
            raise ValueError("check_interval_cycles must be finite and positive")
        max_wait = self.max_wait_cycles
        if max_wait is not None and not 0 < max_wait < math.inf:
            raise ValueError("max_wait_cycles must be finite and positive (or None)")


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One detected violation: when, which invariant, and the evidence."""

    time: float
    name: str
    detail: str


class InvariantViolationError(AssertionError):
    """Raised in ``fail_fast`` mode (or by :meth:`raise_if_violated`)."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = violations
        lines = [f"{len(violations)} invariant violation(s):"]
        lines += [
            f"  cycle {v.time:.1f} [{v.name}] {v.detail}" for v in violations[:10]
        ]
        if len(violations) > 10:
            lines.append(f"  ... and {len(violations) - 10} more")
        super().__init__("\n".join(lines))


class InFlightTracker:
    """Incremental network-wide registry of buffered packets.

    The :class:`InvariantChecker`'s observer hooks maintain it as
    packets enter buffers (local-port inject, link-arrival commit) and
    leave them (dispatch), so its periodic sweeps can read duplicate-uid
    and age state in O(buffered packets) instead of re-walking every
    router x port x virtual channel.  A uid entering a second buffer
    slot while still registered is a model bug; the collision is
    recorded at insertion time and surfaced (as a
    ``duplicate-in-flight`` violation) by the next check.
    """

    __slots__ = ("entries", "collisions")

    def __init__(self) -> None:
        #: uid -> (node, port name, packet); the packet reference keeps
        #: ``waiting_since`` readable for the incremental age check.
        self.entries: dict[int, tuple[int, str, object]] = {}
        #: (uid, prior location, new location) recorded at add() time.
        self.collisions: list[tuple[int, tuple[int, str], tuple[int, str]]] = []

    def add(self, packet, node: int, port) -> None:
        uid = packet.uid
        prior = self.entries.get(uid)
        if prior is not None:
            self.collisions.append(
                (uid, (prior[0], prior[1]), (node, port.name))
            )
        self.entries[uid] = (node, port.name, packet)

    def discard(self, packet) -> None:
        self.entries.pop(packet.uid, None)

    def __len__(self) -> int:
        return len(self.entries)


class InvariantChecker:
    """Continuous verification of a network simulation's bookkeeping.

    Attach with ``NetworkSimulator(config, invariants=checker)`` (or
    pass an :class:`InvariantConfig`); the simulator attaches it as its
    first observer and schedules the periodic sweeps and the end-of-run
    check itself.

    Its observer hooks keep an :class:`InFlightTracker` of the watched
    simulator, so periodic sweeps of it take the
    *incremental* path -- conservation totals, tracker-vs-buffer
    consistency, collision-recorded duplicates and the age bound over
    the tracker's O(buffered) entries -- and the exhaustive
    per-buffer walk (credit sanity included) runs only where callers
    ask for ``full=True``: the end of :meth:`NetworkSimulator.run` and
    the post-drain check of guarded sweep points.
    """

    def __init__(self, config: InvariantConfig | None = None) -> None:
        self.config = config or InvariantConfig()
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0
        #: the watched simulator and its in-flight registry (on_attach)
        self._sim = None
        self._tracker: InFlightTracker | None = None

    @property
    def clean(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            raise InvariantViolationError(self.violations)

    # -- observer hooks --------------------------------------------------

    def on_attach(self, sim) -> None:
        self._sim = sim
        self._tracker = InFlightTracker()

    def on_enter(self, sim, node: int, port, packet) -> None:
        self._tracker.add(packet, node, port)

    def on_dispatch(self, sim, router, dispatch) -> None:
        self._tracker.discard(dispatch.packet)  # now in transit or sinking

    # -- the checks ------------------------------------------------------

    def check_network(
        self, sim, full: bool | None = None
    ) -> list[InvariantViolation]:
        """Run every invariant against *sim*'s current state.

        Called between events, where the simulator's accounting is
        guaranteed consistent.  Returns the violations found by this
        sweep (also appended to :attr:`violations`).

        *full* selects the exhaustive per-buffer walk; the default
        (None) walks only when *sim* is not the simulator this checker
        watches, so high-cadence periodic checks on paper-preset
        networks stay O(buffered packets).
        """
        self.checks_run += 1
        found: list[InvariantViolation] = []
        now = sim.now
        tracker = self._tracker if sim is self._sim else None
        self._check_conservation(sim, now, found)
        if full or tracker is None:
            self._check_buffers(sim, now, found)
        else:
            self._check_tracker(sim, tracker, now, found)
        if found:
            self.violations.extend(found)
            tel = sim.telemetry
            if tel.enabled:
                for violation in found:
                    tel.on_invariant_violation(
                        violation.time, violation.name, violation.detail
                    )
            if self.config.fail_fast:
                raise InvariantViolationError(found)
        return found

    def _check_conservation(self, sim, now: float, found: list) -> None:
        buffered = sim.total_buffered_packets()
        pending = sim.total_pending_injections()
        accounted = (
            sim.total_delivered
            + sim.total_dropped
            + buffered
            + pending
            + sim.packets_in_transit
            + sim.packets_sinking
        )
        if accounted != sim.total_injected:
            found.append(InvariantViolation(
                now,
                "packet-conservation",
                f"injected={sim.total_injected} != accounted={accounted} "
                f"(delivered={sim.total_delivered} dropped={sim.total_dropped} "
                f"buffered={buffered} pending={pending} "
                f"in_transit={sim.packets_in_transit} "
                f"sinking={sim.packets_sinking})",
            ))

    def _check_tracker(
        self, sim, tracker: InFlightTracker, now: float, found: list
    ) -> None:
        """The incremental sweep: tracker state instead of a full walk.

        Covers the duplicate-uid check (collisions were recorded at
        insertion), the anti-starvation age bound (over the tracker's
        live entries), and a consistency cross-check that the tracker
        agrees with the buffers' own occupancy counters -- which is
        what catches a missed hook, the one failure mode the
        incremental path adds.  Credit sanity needs the per-channel
        reservation counters and stays in the ``full`` walk.
        """
        if tracker.collisions:
            for uid, prior, current in tracker.collisions:
                found.append(InvariantViolation(
                    now,
                    "duplicate-in-flight",
                    f"packet #{uid} buffered at node {current[0]}/"
                    f"{current[1]} and at node {prior[0]}/{prior[1]}",
                ))
            tracker.collisions.clear()
        buffered = sim.total_buffered_packets()
        if len(tracker) != buffered:
            found.append(InvariantViolation(
                now,
                "inflight-registry",
                f"in-flight registry tracks {len(tracker)} packets but "
                f"buffers hold {buffered}",
            ))
        max_wait = self.config.max_wait_cycles
        if max_wait is not None:
            for uid, (node, port_name, packet) in tracker.entries.items():
                wait = now - packet.waiting_since
                if wait > max_wait:
                    found.append(InvariantViolation(
                        now,
                        "anti-starvation-age",
                        f"packet #{uid} has waited {wait:.0f} cycles at "
                        f"node {node}/{port_name} (bound {max_wait:.0f})",
                    ))

    def _check_buffers(self, sim, now: float, found: list) -> None:
        """Duplicate uids, credit sanity, the age bound and the routers'
        nomination indexes in one walk."""
        seen: dict[int, tuple[int, object]] = {}
        max_wait = self.config.max_wait_cycles
        for router in sim.routers:
            # The index is maintained incrementally from buffer reports;
            # rebuilt from the queues it must come out the same, or a
            # launch is nominating from (or sleeping on) stale heads.
            for drift in router.head_index_drift():
                found.append(InvariantViolation(
                    now, "nomination-index", f"node {router.node}: {drift}"
                ))
            for port, buffer in router.buffers.items():
                # Index order, not set order: VirtualChannel hashes come
                # from strings, so a bare set walk would report (and,
                # under fail_fast, stop at) violations in an order that
                # varies with PYTHONHASHSEED from process to process.
                for channel in sorted(
                    buffer.channels_with_waiting(), key=attrgetter("index")
                ):
                    for packet in buffer.packets(channel):
                        prior = seen.get(packet.uid)
                        if prior is not None:
                            found.append(InvariantViolation(
                                now,
                                "duplicate-in-flight",
                                f"packet #{packet.uid} buffered at node "
                                f"{router.node}/{port.name} and at node "
                                f"{prior[0]}/{prior[1]}",
                            ))
                        else:
                            seen[packet.uid] = (router.node, port.name)
                        if max_wait is not None:
                            wait = now - packet.waiting_since
                            if wait > max_wait:
                                found.append(InvariantViolation(
                                    now,
                                    "anti-starvation-age",
                                    f"packet #{packet.uid} has waited "
                                    f"{wait:.0f} cycles at node "
                                    f"{router.node}/{port.name} "
                                    f"(bound {max_wait:.0f})",
                                ))
                for channel, occupancy, reserved in buffer.credit_state():
                    capacity = buffer.capacity(channel)
                    if reserved < 0 or occupancy + reserved > capacity:
                        found.append(InvariantViolation(
                            now,
                            "buffer-credit",
                            f"node {router.node}/{port.name} {channel}: "
                            f"occupancy={occupancy} reserved={reserved} "
                            f"capacity={capacity}",
                        ))


class ArbitrationInvariants:
    """Per-trial matching validation for the standalone model.

    Wraps :func:`repro.core.types.validate_matching` into the same
    record-or-raise shape as :class:`InvariantChecker`, so the
    standalone model (Figures 8/9) can assert every trial's grants form
    a legal matching -- unique rows/packets/outputs, nominated
    combinations only, free outputs only, group capacities respected.
    """

    def __init__(self, fail_fast: bool = True) -> None:
        self.fail_fast = fail_fast
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def check_arbitration(
        self,
        nominations: list[Nomination],
        free_outputs: frozenset[int],
        grants: list[Grant],
        trial: int = 0,
    ) -> None:
        self.checks_run += 1
        try:
            validate_matching(nominations, grants, free_outputs)
        except ValueError as error:
            violation = InvariantViolation(
                float(trial), "arbitration-matching", str(error)
            )
            self.violations.append(violation)
            if self.fail_fast:
                raise InvariantViolationError([violation]) from error


@dataclass
class ResilienceReport:
    """Aggregate outcome of a guarded run (sweeps attach one per point)."""

    invariant_violations: int = 0
    watchdog_fires: int = 0
    faults_injected: int = 0
    packets_dropped: int = 0
    link_retries: int = 0
    attempts: int = 1
    resumed: bool = False

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceReport":
        report = cls()
        for key, value in data.items():
            if hasattr(report, key):
                setattr(report, key, value)
        return report
