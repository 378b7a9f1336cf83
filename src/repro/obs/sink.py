"""Trace sinks: where telemetry records go.

A sink consumes the wire-format dicts (schema:
:mod:`repro.obs.events`) and the manifest/counters records written by
:class:`repro.obs.telemetry.Telemetry` through :meth:`TraceSink.emit`,
and the per-packet records, which their hooks format as compact JSON
lines themselves, through :meth:`TraceSink.write`.  Three
implementations:

* :class:`NullSink` -- swallows everything; ``active`` is False so
  producers can skip building records entirely (the disabled fast
  path).
* :class:`MemorySink` -- keeps records in a list (tests, ad-hoc
  analysis).
* :class:`JsonlSink` -- one JSON object per line, append-only, written
  lazily so an unused sink never touches the filesystem.

JSONL was chosen over a binary format because traces are grep-able,
diff-able and streamable -- the ``repro obs`` reader never loads a
whole trace into memory.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import IO

#: ``json.dumps(record, separators=(",", ":"))`` as one C encoder built
#: once, instead of a new encoder per record; ``"".join`` its chunks.
#: Arguments: markers (None: no state shared between calls), default,
#: encoder, indent, key and item separators, sort_keys, skipkeys,
#: allow_nan.
_compact = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ":", ",", False, False, True,
)


class TraceSink:
    """Interface; subclasses override :meth:`emit` and :meth:`close`
    (and :meth:`write`, when they store lines)."""

    #: False when emitting is pointless (producers skip record building).
    active: bool = True

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def write(self, line: str) -> None:
        """Take one record already encoded as a compact JSON line
        (no newline); a sink that keeps dicts gets it as :meth:`emit`."""
        self.emit(json.loads(line))

    def close(self) -> None:
        """Flush and release resources; further emits are ignored."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(TraceSink):
    """Discards everything; the disabled-telemetry fast path."""

    active = False

    def emit(self, record: dict) -> None:
        pass


class MemorySink(TraceSink):
    """Collects records in memory -- for tests and notebooks."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.closed = False

    def emit(self, record: dict) -> None:
        if not self.closed:
            self.records.append(record)

    def close(self) -> None:
        self.closed = True

    def by_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("kind") == kind]


class JsonlSink(TraceSink):
    """Appends one compact JSON object per line to *path*.

    The file (and its parent directory) is created on the first emit,
    so constructing a sink that never fires costs nothing.  Emits after
    :meth:`close` are silently dropped: the timing model finalizes its
    trace at the measurement window's end, but tests may keep draining
    in-flight packets afterwards.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None
        self._closed = False
        self.records_written = 0

    def emit(self, record: dict) -> None:
        self.write("".join(_compact(record, 0)))

    def write(self, line: str) -> None:
        if self._closed:
            return
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
        # One write per record: a killed writer can tear only the last line.
        self._file.write(line + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._closed = True


def read_jsonl(path: str | Path):
    """Yield records from a JSONL trace, streaming line by line.

    A final line that is not valid JSON **and** lacks its newline is
    what a killed writer leaves behind (the same rule as
    ``SweepJournal.load``): the records before it are yielded, then one
    closing ``{"kind": "truncated"}`` in place of the ``run-end`` the
    trace never got.  An invalid line anywhere else raises ``ValueError``.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as error:
                if not raw_line.endswith("\n"):  # only the last line can
                    yield {"kind": "truncated"}
                    return
                raise ValueError(
                    f"{path}:{line_number}: not valid JSONL ({error})"
                ) from error
