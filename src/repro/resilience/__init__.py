"""Resilience layer: fault injection, invariants, watchdog, checkpoints.

The paper's central claim -- SPAA matches PIM1/WFA while the Rotary
Rule prevents post-saturation collapse -- is only credible if the
simulator provably conserves packets and makes forward progress deep
into saturation, exactly the regime where silent bugs hide.  This
package makes the reproduction hard to break and loud when it does:

* :mod:`repro.resilience.faults` -- a seeded, config-driven
  :class:`FaultInjector` that drops/corrupts flits on links (recovered
  by the 21364-style link retry protocol), suppresses or mis-routes
  individual arbiter grants, and stalls a router for N cycles;
* :mod:`repro.resilience.invariants` -- an :class:`InvariantChecker`
  that continuously asserts packet conservation, duplicate-free
  in-flight ids, buffer-credit sanity and the anti-starvation age
  bound, plus :class:`ArbitrationInvariants` for the standalone model;
* :mod:`repro.resilience.watchdog` -- a :class:`ProgressWatchdog` that
  detects deadlock/livelock and emits a structured per-port occupancy
  diagnostic instead of hanging;
* :mod:`repro.resilience.checkpoint` -- a :class:`SweepJournal` that
  persists completed BNF points so long sweeps survive crashes and can
  resume a partial curve (torn-tail tolerant: a half-written final
  line from a crash is salvaged, not fatal);
* :mod:`repro.resilience.supervisor` -- :class:`PointSupervisor`, the
  one lease-driven scheduler behind every pooled sweep and campaign
  (local spawn workers or a remote fleet): heartbeats, per-task
  deadlines and poison-point quarantine, reaping and replenishing
  instead of hanging or aborting.
"""

from repro.resilience.backoff import jittered_backoff
from repro.resilience.checkpoint import (
    JournalLock,
    JournalLockError,
    SweepJournal,
    rate_key,
)
from repro.resilience.leases import Lease, LeaseTable
from repro.resilience.supervisor import (
    PointSupervisor,
    SupervisorConfig,
    SupervisorEvent,
)
from repro.resilience.faults import (
    REASON_LINK_RETRIES_EXHAUSTED,
    FaultConfig,
    FaultInjector,
    parse_fault_spec,
    permanent_stall,
)
from repro.resilience.invariants import (
    ArbitrationInvariants,
    InFlightTracker,
    InvariantChecker,
    InvariantConfig,
    InvariantViolation,
    InvariantViolationError,
)
from repro.resilience.watchdog import (
    DeadlockError,
    ProgressWatchdog,
    WatchdogConfig,
)

__all__ = [
    "ArbitrationInvariants",
    "JournalLock",
    "JournalLockError",
    "Lease",
    "LeaseTable",
    "DeadlockError",
    "FaultConfig",
    "FaultInjector",
    "InFlightTracker",
    "InvariantChecker",
    "InvariantConfig",
    "InvariantViolation",
    "InvariantViolationError",
    "PointSupervisor",
    "ProgressWatchdog",
    "REASON_LINK_RETRIES_EXHAUSTED",
    "SupervisorConfig",
    "SupervisorEvent",
    "SweepJournal",
    "WatchdogConfig",
    "jittered_backoff",
    "parse_fault_spec",
    "permanent_stall",
    "rate_key",
]
