"""Lease bookkeeping for the scheduler.

A *lease* is one grant of one task to one holder -- a local worker
process, or a remote worker connection behind
:class:`repro.service.coordinator.FleetTransport` -- by
:class:`~repro.resilience.supervisor.PointSupervisor`.  Whatever the
holder, the bookkeeping around it is the same:

* when was the task granted, and when did its holder last heartbeat;
* which leases have expired (wall-clock deadline, or heartbeat gone
  stale -- the wedge detector);
* how many times has this task crashed its holder, and is it due for
  quarantine.

:class:`LeaseTable` owns that state: the pool transport reaps the
*process* holding an expired lease, the fleet transport kicks the
*connection*, but "expired" and "poison" mean the same thing for
both.  Each lease carries a table-unique
``dispatch`` id; a scheduler that stamps the id onto the work it hands
out can recognize (and discard) stale deliveries from a holder whose
lease was already expired and re-granted -- that is what makes
at-least-once dispatch record exactly-once.

Wall-clock only ever flows into *expiry decisions*, never into task
results, so lease accounting cannot perturb determinism.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One live grant of one task to one holder."""

    task_id: Any
    holder: Any
    #: table-unique grant id; deliveries stamped with an older dispatch
    #: for the same task are stale and must be discarded.
    dispatch: int
    granted_at: float
    last_beat: float = 0.0

    def __post_init__(self) -> None:
        if not self.last_beat:
            self.last_beat = self.granted_at


@dataclass
class LeaseTable:
    """Active leases plus per-task crash/quarantine accounting.

    ``deadline_s`` bounds a lease's total wall-clock age and
    ``stale_s`` bounds the silence since its last heartbeat; either
    being ``None`` disables that check.  The table never acts on
    expiry itself -- :meth:`expired` reports, the scheduler reaps or
    kicks and then :meth:`release`\\ s.
    """

    deadline_s: float | None = None
    stale_s: float | None = None
    _leases: dict[Any, Lease] = field(default_factory=dict, repr=False)
    _crashes: dict[Any, int] = field(default_factory=dict, repr=False)
    _dispatch: Iterator[int] = field(
        default_factory=lambda: itertools.count(1), repr=False
    )

    # -- granting and releasing ------------------------------------------

    def grant(self, task_id: Any, holder: Any, now: float | None = None) -> Lease:
        """Lease *task_id* to *holder*; re-granting replaces the lease."""
        if now is None:
            now = time.monotonic()
        lease = Lease(
            task_id=task_id,
            holder=holder,
            dispatch=next(self._dispatch),
            granted_at=now,
        )
        self._leases[task_id] = lease
        return lease

    def release(self, task_id: Any) -> Lease | None:
        """Drop the task's lease (result landed, or holder reaped)."""
        return self._leases.pop(task_id, None)

    def lease_for(self, task_id: Any) -> Lease | None:
        return self._leases.get(task_id)

    def held_by(self, holder: Any) -> list[Lease]:
        """Every lease currently granted to *holder*."""
        return [
            lease for lease in self._leases.values() if lease.holder is holder
        ]

    def __len__(self) -> int:
        return len(self._leases)

    def __iter__(self) -> Iterator[Lease]:
        return iter(list(self._leases.values()))

    # -- liveness --------------------------------------------------------

    def beat(self, task_id: Any, now: float | None = None) -> bool:
        """Record a heartbeat for the task's lease; False if none live."""
        lease = self._leases.get(task_id)
        if lease is None:
            return False
        lease.last_beat = time.monotonic() if now is None else now
        return True

    def expired(self, now: float | None = None) -> list[tuple[Lease, str]]:
        """Leases past a bound, with the human-readable reap detail.

        The detail strings are the journalled/traced reap reasons,
        the same for local and fleet holders so operators read one
        vocabulary.
        """
        if now is None:
            now = time.monotonic()
        out: list[tuple[Lease, str]] = []
        for lease in self._leases.values():
            if (
                self.deadline_s is not None
                and now - lease.granted_at > self.deadline_s
            ):
                out.append((
                    lease,
                    f"point deadline exceeded ({self.deadline_s:g}s)",
                ))
            elif (
                self.stale_s is not None
                and now - lease.last_beat > self.stale_s
            ):
                out.append((
                    lease,
                    f"heartbeat stale beyond {self.stale_s:g}s",
                ))
        return out

    # -- crash accounting ------------------------------------------------

    def record_crash(self, task_id: Any) -> int:
        """Count one holder crash against the task; returns the total."""
        count = self._crashes.get(task_id, 0) + 1
        self._crashes[task_id] = count
        return count

    def crashes(self, task_id: Any) -> int:
        return self._crashes.get(task_id, 0)

    def should_quarantine(self, task_id: Any, quarantine_after: int) -> bool:
        """True once the task has crashed its holders to the limit."""
        return self._crashes.get(task_id, 0) >= quarantine_after
