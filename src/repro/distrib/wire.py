"""Wire helpers for the routed serving tier's JSON-lines protocol.

The router, its workers and the test harness all speak the serve
protocol of :mod:`repro.serving` — one JSON object per line over TCP.
This module owns the two primitives everything else builds on:

* :func:`connect_with_retry` — open a TCP connection by *polling* for
  port readiness instead of sleeping a fixed interval, so callers block
  exactly as long as the server needs to come up (and fail fast with the
  last socket error once the deadline passes).
* :class:`JsonLinesConnection` — a thread-compatible send/recv pair over
  one such connection (sends are locked so concurrent writers never
  interleave partial lines; receives are left to a single reader thread,
  which is how the router's per-worker relay uses it).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, Optional

#: Default seconds between readiness probes while a port is refusing.
_RETRY_INTERVAL = 0.05


def connect_with_retry(
    host: str,
    port: int,
    *,
    timeout: float = 30.0,
    interval: float = _RETRY_INTERVAL,
) -> socket.socket:
    """Connect to ``(host, port)``, polling until the listener is ready.

    Retries ``ConnectionRefusedError``/``OSError`` until ``timeout``
    seconds have passed, then re-raises the last error.  The returned
    socket has ``timeout`` set as its per-operation timeout and
    ``TCP_NODELAY`` on: each protocol line is a whole message, so none
    should wait in Nagle's buffer for the peer's delayed ACK.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[OSError] = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as error:
            last_error = error
            time.sleep(interval)
    raise last_error if last_error is not None else OSError(
        f"no connection to {host}:{port} within {timeout}s"
    )


class JsonLinesConnection:
    """One line-delimited JSON peer: locked sends, blocking receives."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._sock = connect_with_retry(host, port, timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, payload: Dict[str, object]) -> None:
        """Write one protocol line (thread-safe; raises OSError when dead)."""
        data = (json.dumps(payload) + "\n").encode("utf-8")
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self) -> Optional[Dict[str, object]]:
        """Blocking read of the next line; ``None`` on EOF / closed socket.

        Malformed lines (a peer dying mid-write) also terminate the
        stream with ``None`` — the caller's EOF handling covers both.
        """
        try:
            line = self._reader.readline()
        except (OSError, ValueError):
            return None
        if not line:
            return None
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            return None
        return message if isinstance(message, dict) else None

    def close(self) -> None:
        self._closed = True
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "JsonLinesConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def ping(host: str, port: int, *, timeout: float = 5.0) -> Dict[str, object]:
    """One-shot liveness probe: ``{"op": "ping"}`` -> the ``pong`` payload.

    Raises ``OSError``/``TimeoutError`` when the peer is unreachable or
    silent — the supervisor treats any raise as a failed heartbeat.
    """
    with JsonLinesConnection(host, port, timeout=timeout) as conn:
        conn.send({"op": "ping"})
        reply = conn.recv()
    if reply is None or reply.get("event") != "pong":
        raise OSError(f"no pong from {host}:{port} (got {reply!r})")
    return reply
