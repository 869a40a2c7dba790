"""Every protocol socket sends with Nagle's algorithm off (``TCP_NODELAY``).

Each JSON line is a whole message.  With Nagle on, a ``result`` line
written right after the ``accepted`` line waits for the client's delayed
ACK of the first (up to 40 ms on Linux).  Checked on the three kinds of
socket: an accepted serve connection (workers use the same front end), an
accepted router connection and a router→worker link.
"""

import socket
import threading
from types import SimpleNamespace

from repro.distrib import RouterFrontEnd
from repro.distrib.wire import JsonLinesConnection
from repro.serving import ServeFrontEnd

from test_router_relay import _FakeSupervisor


def nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def accepted_nodelay(server) -> bool:
    """TCP_NODELAY of the server-side socket of one fresh connection."""
    seen = []
    handled = threading.Event()
    base = server.RequestHandlerClass

    class Probe(base):
        def setup(self):
            super().setup()
            seen.append(nodelay(self.connection))
            handled.set()

    server.RequestHandlerClass = Probe
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address, timeout=10):
            assert handled.wait(timeout=10)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return seen[0]


def test_serve_connection_sets_nodelay():
    front = ServeFrontEnd(SimpleNamespace())
    assert accepted_nodelay(front.serve_tcp("127.0.0.1", 0))


def test_router_connection_and_worker_link_set_nodelay():
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = {}
    accepter = threading.Thread(
        target=lambda: accepted.setdefault("conn", listener.accept()[0])
    )
    accepter.start()
    router = RouterFrontEnd(_FakeSupervisor(listener.getsockname()[1]))
    accepter.join(timeout=10)
    link = router._links["w0"]
    try:
        assert isinstance(link.conn, JsonLinesConnection)
        assert nodelay(link.conn._sock)
        assert accepted_nodelay(router.serve_tcp("127.0.0.1", 0))
    finally:
        accepted["conn"].close()
        link.thread.join(timeout=10)
        router.close()
        listener.close()
