"""Wire protocol: framing, payload round-trips, malformed input.

The channel is exercised over a real localhost TCP pair (not an
AF_UNIX socketpair) because that is exactly what the service runs on,
peer naming included.
"""

import pickle
import socket
import threading

import pytest

from repro.service import protocol
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    connect,
    decode_payload,
    encode_payload,
)
from repro.service.worker import WorkerConfig


def tcp_pair():
    """A connected (client_channel, server_channel, raw_server_sock)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    accepted = {}

    def _accept():
        accepted["sock"], _ = listener.accept()

    thread = threading.Thread(target=_accept)
    thread.start()
    client = connect(host, port)
    thread.join(timeout=5)
    listener.close()
    return client, MessageChannel(accepted["sock"]), accepted["sock"]


def round_trip(obj):
    """What a pickled task or result goes through on the wire."""
    return pickle.loads(decode_payload(encode_payload(pickle.dumps(obj))))


class TestPayloads:
    def test_round_trips_a_dataclass_exactly(self):
        spec = WorkerConfig(host="example", port=7421, name="w0", seed=3)
        assert round_trip(spec) == spec

    def test_round_trips_nested_structures(self):
        obj = {"curve": [(0.01, 12.5), (0.3, 99.0)], "algo": "SPAA-base"}
        assert round_trip(obj) == obj

    def test_payload_is_json_safe(self):
        import json

        encoded = encode_payload(pickle.dumps(WorkerConfig()))
        assert json.loads(json.dumps({"payload": encoded}))["payload"] == encoded

    @pytest.mark.parametrize("garbage", [None, 7, "not base64!", "abc"])
    def test_malformed_payload_is_a_protocol_error(self, garbage):
        with pytest.raises(ProtocolError, match="bad payload"):
            decode_payload(garbage)


class TestMessageChannel:
    def test_frames_round_trip(self):
        a, b, _ = tcp_pair()
        try:
            a.send({"type": "hello", "name": "w0"})
            assert b.recv() == {"type": "hello", "name": "w0"}
            b.send({"type": "welcome", "session": "abc"})
            assert a.recv() == {"type": "welcome", "session": "abc"}
        finally:
            a.close()
            b.close()

    def test_recv_returns_none_on_orderly_close(self):
        a, b, _ = tcp_pair()
        try:
            a.close()
            assert b.recv() is None
        finally:
            b.close()

    def test_garbage_line_is_a_protocol_error(self):
        a, b, raw = tcp_pair()
        try:
            raw.sendall(b"this is not json\n")
            with pytest.raises(ProtocolError, match="bad frame"):
                a.recv()
        finally:
            a.close()
            b.close()

    def test_frame_without_type_is_rejected(self):
        a, b, raw = tcp_pair()
        try:
            raw.sendall(b'{"no": "type"}\n')
            with pytest.raises(ProtocolError, match="without a type"):
                a.recv()
        finally:
            a.close()
            b.close()

    def test_oversized_frame_is_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        a, b, raw = tcp_pair()
        try:
            raw.sendall(b'{"type": "x", "pad": "' + b"y" * 200 + b'"}\n')
            with pytest.raises(ProtocolError, match="exceeds"):
                a.recv()
        finally:
            a.close()
            b.close()

    def test_peer_name_is_host_port(self):
        a, b, _ = tcp_pair()
        try:
            assert a.peer.startswith("127.0.0.1:")
            assert b.peer.startswith("127.0.0.1:")
        finally:
            a.close()
            b.close()
