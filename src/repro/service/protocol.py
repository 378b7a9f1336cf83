"""JSON-lines wire protocol between coordinator and fleet workers.

Frames are one JSON object per ``\\n``-terminated line -- trivially
debuggable with ``nc`` and immune to partial-read framing bugs.  A task
is the bytes the scheduler pickled -- its runner and the picklable
:class:`~repro.sim.sweep.PointSpec` / scenario spec, exactly what a
local pool worker receives -- and a result is the bytes the worker
pickled; both ride *inside* a frame base64-wrapped, so a remote worker
runs exactly the task a local worker would have run and results stay
bitwise identical to a serial run.

Frame vocabulary (``type`` field):

===============  =======================  ==============================
frame            direction                meaning
===============  =======================  ==============================
``hello``        worker -> coordinator    join the fleet (``name``)
``welcome``      coordinator -> worker    accepted; carries ``session``
``task``         coordinator -> worker    a leased task (``token``,
                                          ``dispatch``, ``payload``)
``heartbeat``    worker -> coordinator    liveness for the running task
``result``       worker -> coordinator    task finished (``payload``)
``error``        worker -> coordinator    runner raised (``detail``)
``shutdown``     coordinator -> worker    campaign over; exit cleanly
``status``       client -> coordinator    one-shot status query
``submit``       client -> coordinator    one-shot job submission
===============  =======================  ==============================

Pickle is only ever decoded from peers that were told where to
connect by the operator who launched the fleet; the service binds to
localhost by default and offers no authentication -- do not expose it
to untrusted networks (see ``docs/service.md``).
"""

from __future__ import annotations

import base64
import json
import socket
import threading
from typing import Any

__all__ = [
    "MessageChannel",
    "ProtocolError",
    "connect",
    "decode_payload",
    "encode_payload",
]

#: Bound on one frame's length; a frame larger than this is a protocol
#: violation, not a workload (point specs are tiny, results are small
#: summary dataclasses -- traces travel through the filesystem, not
#: the wire).
MAX_FRAME_BYTES = 32 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed or oversized frame arrived on the wire."""


def encode_payload(data: bytes) -> str:
    """Wrap pickled *data* for transport inside a JSON frame."""
    return base64.b64encode(data).decode("ascii")


def decode_payload(text: Any) -> bytes:
    """Inverse of :func:`encode_payload`; anything else in a frame's
    payload field is a :class:`ProtocolError`."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad payload: {error}") from error


class MessageChannel:
    """One socket speaking newline-delimited JSON frames.

    Receives are single-threaded (each side has one reader); sends are
    serialized under a lock because the coordinator's pump thread and
    the worker's heartbeat callable both write.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self.peer = _peer_name(sock)

    def send(self, frame: dict) -> None:
        """Ship one frame; raises ``OSError`` if the peer is gone."""
        data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self) -> dict | None:
        """Block for the next frame; ``None`` on orderly EOF."""
        line = self._reader.readline(MAX_FRAME_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame exceeds {MAX_FRAME_BYTES} bytes from {self.peer}"
            )
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"bad frame from {self.peer}: {error}") from error
        if not isinstance(frame, dict) or "type" not in frame:
            raise ProtocolError(f"frame without a type from {self.peer}")
        return frame

    def close(self) -> None:
        # Shut the socket down before touching the reader: a peer's
        # reader thread blocked in ``readline`` holds the buffer lock,
        # and closing the file first would wait on that lock forever.
        # The shutdown pops the blocked read with EOF, releasing it.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def connect(host: str, port: int, timeout_s: float = 10.0) -> MessageChannel:
    """Dial the coordinator and return the connected channel."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.settimeout(None)
    return MessageChannel(sock)


def _peer_name(sock: socket.socket) -> str:
    try:
        host, port = sock.getpeername()[:2]
        return f"{host}:{port}"
    except OSError:
        return "<disconnected>"
