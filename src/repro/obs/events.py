"""The trace schema: its version and the fields of every event record.

Every record in a trace (see :mod:`repro.obs.sink`) is one JSON object
with a ``kind`` discriminator.  The :class:`~repro.obs.telemetry.Telemetry`
hooks write these records directly (the per-packet kinds as ready-made
JSON lines); :data:`RECORD_FIELDS` is the written schema they are
tested against (``tests/obs/test_wire_format.py``).
Bump :data:`OBS_SCHEMA_VERSION` whenever a record's fields change
meaning.

Three framing kinds are written outside the hooks and are not in the
table: ``manifest`` (trace header, :class:`~repro.obs.manifest.RunManifest`),
``counters`` (final metrics-registry snapshot) and ``run-end`` (footer:
wall time plus whatever the run passed to ``finalize``).
"""

from __future__ import annotations

#: bump when any record layout changes incompatibly.
OBS_SCHEMA_VERSION = 1

#: kind -> the record's keys in wire order; ``"kind"`` follows them
#: (``watchdog`` alone leads with it -- kept so traces stay
#: byte-identical).  ``time`` is simulated core cycles, except for the
#: supervisor and service kinds, whose parent process has no simulated
#: clock: seconds since the supervisor / coordinator started.
RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    # -- simulation (time = core cycles) ----------------------------------
    # a packet entered a node's local injection queue
    "inject": ("time", "node", "packet", "pclass", "destination"),
    # a read-port arbiter nominated a packet for outputs (a list)
    "nominate": ("time", "node", "row", "packet", "outputs"),
    # a packet won arbitration and left through output, which stays busy
    # busy_cycles (pipeline tail + flit service; utilization sums these)
    "grant": ("time", "node", "row", "packet", "output", "busy_cycles"),
    # an arbitration pass left count live nominations unserved
    "conflict": ("time", "node", "algorithm", "count"),
    # anti-starvation draining engaged (or released) at a router
    "starve": ("time", "node", "old_count", "engaged"),
    # a packet sank at its destination's local port
    "deliver": ("time", "node", "packet", "pclass", "latency_cycles", "hops"),
    # -- fault injection and runtime checks (time = core cycles) ----------
    # a link traversal lost/corrupted a flit; attempt counts the
    # retransmissions already consumed before the packet drops
    "link-fault": ("time", "node", "packet", "fault", "attempt"),
    # arbiter grants were suppressed/mis-routed/stalled at one router
    "grant-fault": ("time", "node", "fault", "count"),
    # a packet left the accounting as dropped, with its reason
    "drop": ("time", "node", "packet", "pclass", "reason"),
    # a runtime invariant check failed (see repro.resilience)
    "invariant": ("time", "name", "detail"),
    # the progress watchdog fired; diagnostic is the stall snapshot
    "watchdog": ("time", "diagnostic"),
    # a watchdog recovery kick resolved: remediated (lost wake-up) or
    # deadlocked (kick failed)
    "watchdog-remediation": ("time", "outcome"),
    # a post-run drain exhausted its budget with packets unaccounted
    "drain-warn": ("time", "buffered", "pending", "in_transit"),
    # -- supervisor (time = seconds since the supervisor started) ---------
    # a supervised worker died mid-task; crashes is the task's count so far
    "worker-lost": ("time", "task", "detail", "crashes"),
    # a supervised task was reaped at its deadline or staleness bound
    "point-timeout": ("time", "task", "detail", "crashes"),
    # a poison task was abandoned after repeated supervised crashes
    "quarantined": ("time", "task", "crashes", "detail"),
    # -- service (time = seconds since the coordinator started) -----------
    # a task was leased to a remote worker under a table-unique dispatch
    # id; reassigned marks re-grants after a crash or expiry
    "lease-granted": ("time", "task", "worker", "dispatch", "reassigned"),
    # a lease blew its deadline or heartbeat bound; the worker is kicked
    "lease-expired": ("time", "task", "worker", "detail"),
    # a remote fleet worker joined (or rejoined) the coordinator
    "worker-connect": ("time", "worker"),
    # a stale delivery (expired/re-granted lease) was discarded
    "duplicate-result": ("time", "task", "worker"),
}
