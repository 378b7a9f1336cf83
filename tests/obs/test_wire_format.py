"""The trace wire format, pinned record by record.

Every ``Telemetry.on_*`` hook that writes a trace record is called once
into a ``MemorySink``; ``json.dumps`` of what it emitted must equal the
literal captured at the commit before the hooks stopped going through
typed event classes (PR 14).  That pins key order, the list form of
``outputs`` and the leading ``kind`` of ``watchdog`` for all 20 kinds --
including the supervisor and service kinds no simulation emits -- so a
trace written today stays byte-identical to one written then.  The same
hooks into a ``JsonlSink`` pin the line each one puts on disk.
"""

import json

import pytest

from repro.obs.events import RECORD_FIELDS
from repro.obs.sink import JsonlSink, MemorySink
from repro.obs.telemetry import Telemetry

#: (hook, arguments, json.dumps of the emitted record at the parent commit)
WIRE = [
    ("on_injection", (0.5, 1, 42, "request", 3),
     '{"time": 0.5, "node": 1, "packet": 42, "pclass": "request", '
     '"destination": 3, "kind": "inject"}'),
    ("on_nomination", (1.0, 2, 4, 42, (1, 3)),
     '{"time": 1.0, "node": 2, "row": 4, "packet": 42, "outputs": [1, 3], '
     '"kind": "nominate"}'),
    ("on_dispatch", (1.5, 2, 4, 42, 3, 6.5),
     '{"time": 1.5, "node": 2, "row": 4, "packet": 42, "output": 3, '
     '"busy_cycles": 6.5, "kind": "grant"}'),
    ("on_conflicts", (2.0, 2, "SPAA-base", 2),
     '{"time": 2.0, "node": 2, "algorithm": "SPAA-base", "count": 2, '
     '"kind": "conflict"}'),
    ("on_starvation", (2.5, 3, 5, True),
     '{"time": 2.5, "node": 3, "old_count": 5, "engaged": true, '
     '"kind": "starve"}'),
    ("on_delivery", (3.0, 3, 42, "request", 12.25, 2),
     '{"time": 3.0, "node": 3, "packet": 42, "pclass": "request", '
     '"latency_cycles": 12.25, "hops": 2, "kind": "deliver"}'),
    ("on_link_fault", (3.5, 4, 43, "corrupt", 1),
     '{"time": 3.5, "node": 4, "packet": 43, "fault": "corrupt", '
     '"attempt": 1, "kind": "link-fault"}'),
    ("on_grant_fault", (4.0, 4, "suppress", 2),
     '{"time": 4.0, "node": 4, "fault": "suppress", "count": 2, '
     '"kind": "grant-fault"}'),
    ("on_drop", (4.5, 5, 43, "response", "retries-exhausted"),
     '{"time": 4.5, "node": 5, "packet": 43, "pclass": "response", '
     '"reason": "retries-exhausted", "kind": "drop"}'),
    ("on_invariant_violation", (5.0, "conservation", "1 packet unaccounted"),
     '{"time": 5.0, "name": "conservation", '
     '"detail": "1 packet unaccounted", "kind": "invariant"}'),
    ("on_watchdog", (5.5, {"stalled_cycles": 900.0, "buffered": [[0, 2]]}),
     '{"kind": "watchdog", "time": 5.5, "diagnostic": '
     '{"stalled_cycles": 900.0, "buffered": [[0, 2]]}}'),
    ("on_watchdog_remediation", (6.0, "remediated"),
     '{"time": 6.0, "outcome": "remediated", '
     '"kind": "watchdog-remediation"}'),
    ("on_drain_exhausted", (6.5, 3, 1, 2),
     '{"time": 6.5, "buffered": 3, "pending": 1, "in_transit": 2, '
     '"kind": "drain-warn"}'),
    ("on_worker_lost", (0.25, "SPAA-base@0.02", "exit code -9", 1),
     '{"time": 0.25, "task": "SPAA-base@0.02", "detail": "exit code -9", '
     '"crashes": 1, "kind": "worker-lost"}'),
    ("on_point_timeout", (0.5, "SPAA-base@0.03", "deadline 2.0s", 2),
     '{"time": 0.5, "task": "SPAA-base@0.03", "detail": "deadline 2.0s", '
     '"crashes": 2, "kind": "point-timeout"}'),
    ("on_quarantine", (0.75, "SPAA-base@0.03", 3, "deadline 2.0s"),
     '{"time": 0.75, "task": "SPAA-base@0.03", "crashes": 3, '
     '"detail": "deadline 2.0s", "kind": "quarantined"}'),
    ("on_lease_granted", (1.0, "WFA-base@0.01", "w1", 7, True),
     '{"time": 1.0, "task": "WFA-base@0.01", "worker": "w1", "dispatch": 7, '
     '"reassigned": true, "kind": "lease-granted"}'),
    ("on_lease_expired", (1.25, "WFA-base@0.01", "w1", "heartbeat stale 3.0s"),
     '{"time": 1.25, "task": "WFA-base@0.01", "worker": "w1", '
     '"detail": "heartbeat stale 3.0s", "kind": "lease-expired"}'),
    ("on_worker_connect", (1.5, "w2"),
     '{"time": 1.5, "worker": "w2", "kind": "worker-connect"}'),
    ("on_duplicate_result", (1.75, "WFA-base@0.01", "w1"),
     '{"time": 1.75, "task": "WFA-base@0.01", "worker": "w1", '
     '"kind": "duplicate-result"}'),
]


def emitted(hook, args):
    sink = MemorySink()
    getattr(Telemetry(sink=sink), hook)(*args)
    (record,) = sink.records
    return record


@pytest.mark.parametrize("hook, args, wire", WIRE, ids=[w[0] for w in WIRE])
def test_record_matches_the_parent_commit_literal(hook, args, wire):
    record = emitted(hook, args)
    assert json.dumps(record) == wire
    # what JsonlSink writes reads back as the same record
    assert json.loads(json.dumps(record, separators=(",", ":"))) == record


@pytest.mark.parametrize("hook, args, wire", WIRE, ids=[w[0] for w in WIRE])
def test_record_keys_are_the_written_schema(hook, args, wire):
    record = emitted(hook, args)
    fields = RECORD_FIELDS[record["kind"]]
    if record["kind"] == "watchdog":  # the one kind that leads with "kind"
        assert tuple(record) == ("kind",) + fields
    else:
        assert tuple(record) == fields + ("kind",)


def test_jsonl_sink_writes_the_compact_form_of_every_literal(tmp_path):
    """The bytes on disk: per-packet kinds are formatted by their hooks,
    the rest by the sink's encoder -- both must be exactly what
    ``json.dumps(record, separators=(",", ":"))`` writes."""
    path = tmp_path / "wire.jsonl"
    telemetry = Telemetry(sink=JsonlSink(path))
    for hook, args, _ in WIRE:
        getattr(telemetry, hook)(*args)
    telemetry.sink.close()
    assert path.read_text(encoding="utf-8").splitlines() == [
        json.dumps(json.loads(wire), separators=(",", ":")) for _, _, wire in WIRE
    ]


def test_every_schema_kind_has_exactly_one_hook():
    kinds = [emitted(hook, args)["kind"] for hook, args, _ in WIRE]
    assert sorted(kinds) == sorted(RECORD_FIELDS)
    assert len(RECORD_FIELDS) == 20

