"""Line-oriented JSON protocol between campaign coordinator and workers.

One message per ``\\n``-terminated line, UTF-8 JSON objects, strict
request/response over a plain TCP connection: the worker writes one
request line and reads exactly one response line.  The framing is the
same as the JSONL artifact store's on purpose — a streamed outcome line
is byte-compatible with a stored outcome payload, and a torn line (a
worker killed mid-write, a connection dropped mid-line) is detected the
same way: it fails to decode and is discarded without poisoning the
stream.

Requests (worker → coordinator)::

    {"op": "hello",     "worker": W, "token": T}
    {"op": "lease",     "worker": W}
    {"op": "heartbeat", "worker": W, "lease": L}
    {"op": "outcome",   "worker": W, "lease": L, "outcome": {...}}
    {"op": "complete",  "worker": W, "lease": L}
    {"op": "status"}
    {"op": "bye",       "worker": W}

A coordinator started with a token (a local fleet's per-phase secret)
refuses every request on a connection whose hello did not carry it.

Responses (coordinator → worker) always carry ``"ok"``; a lease response
carries either a lease grant (``lease`` + serialized ``units``), a
``retry_in`` backoff (backpressure: the worker holds too many live
leases, or the coordinator's outcome buffer is full, or every remaining
unit is leased to someone else), or ``drained: true`` (every unit of the
phase is done — the worker can exit).

The protocol is deliberately coordination-free about *content*: a lease
ships the full serialized units (a few hundred bytes — units carry only
the generator config and defect set; programs are regenerated worker-side
from sha256-derived per-index seeds), so a worker needs no prior campaign
state, and any worker can execute any range.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional, Tuple

#: Protocol-level limits.  A request line above the cap is rejected before
#: JSON decoding: outcomes embed program sources (KBs), never MBs — an
#: oversized line is a bug or garbage, not data.
MAX_LINE_BYTES = 8 * 1024 * 1024

OP_HELLO = "hello"
OP_LEASE = "lease"
OP_HEARTBEAT = "heartbeat"
OP_OUTCOME = "outcome"
OP_COMPLETE = "complete"
OP_STATUS = "status"
OP_BYE = "bye"


def encode(message: Dict) -> bytes:
    """One wire line for ``message`` (compact JSON + newline)."""

    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> Optional[Dict]:
    """Parse one wire line; ``None`` for torn/garbage/oversized lines."""

    if not line or len(line) > MAX_LINE_BYTES:
        return None
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return message if isinstance(message, dict) else None


class MessageStream:
    """Blocking line-framed JSON messages over a connected socket.

    ``recv()`` returns ``None`` on a cleanly closed peer *and* on a torn
    trailing line (peer died mid-write) — both mean "this conversation is
    over"; a torn line in the middle of a stream decodes to ``None`` and
    is surfaced as ``{"_torn": True}`` so servers can count it and keep
    the connection (the byte stream re-synchronises at the next newline).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def send(self, message: Dict) -> int:
        """Write one message; returns the number of bytes put on the wire."""

        payload = encode(message)
        self._sock.sendall(payload)
        return len(payload)

    def recv(self) -> Optional[Dict]:
        while b"\n" not in self._buffer:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                # Peer gone.  Whatever is buffered is a torn final line.
                self._buffer = b""
                return None
            self._buffer += chunk
            if len(self._buffer) > MAX_LINE_BYTES:
                return None
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = decode(line)
        if message is None:
            return {"_torn": True, "_bytes": len(line)}
        message["_bytes"] = len(line) + 1
        return message

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def connect(host: str, port: int, timeout: Optional[float] = None) -> MessageStream:
    """Dial the coordinator (IPv4, as it listens) and wrap the connection.

    A plain ``connect`` skips ``create_connection``'s ``getaddrinfo``,
    whose first call costs a freshly forked worker about 6 ms.
    """

    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect((host, port))
    except OSError:
        sock.close()
        raise
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageStream(sock)


def parse_address(address: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """``"host:port"`` / ``":port"`` / ``"port"`` → ``(host, port)``."""

    text = address.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or default_host
    else:
        host, port_text = default_host, text
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"invalid coordinator address {address!r}") from exc
    return host, port
