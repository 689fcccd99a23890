"""HttpClient unit tests: keep-alive reuse, retry, and error mapping.

The backend counts TCP accepts, which is the observable that matters:
N requests from one thread over a keep-alive client must cost one
connection, not N.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
import time

import pytest

from repro.errors import TransportError
from repro.fleet import HttpClient
from repro.service.server import make_server
from repro.webapp.framework import (
    HttpError,
    JsonResponse,
    Request,
    StreamingResponse,
    WebApp,
)


class _CountingServer:
    """A live WebApp server that counts accepted TCP connections."""

    def __init__(self):
        app = WebApp("counting")
        self.requests = 0

        @app.route("/ping", methods=("GET", "POST"))
        def ping(request: Request):
            self.requests += 1
            return JsonResponse({"pong": True, "body": request.get_json()})

        @app.route("/boom")
        def boom(_request: Request):
            raise HttpError(503, "backend unhappy")

        self.server = make_server(app)
        self.connections = 0
        original = self.server.get_request

        def counting_get_request():
            result = original()
            self.connections += 1
            return result

        self.server.get_request = counting_get_request
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=2)


@pytest.fixture
def backend():
    server = _CountingServer()
    try:
        yield server
    finally:
        server.close()


class TestKeepAlive:
    def test_many_requests_share_one_connection(self, backend):
        with HttpClient(backend.url) as client:
            for _ in range(10):
                assert client.get("/ping").ok
        assert backend.requests == 10
        assert backend.connections == 1

    def test_connected_socket_has_nagle_off(self, backend):
        """The client sets ``TCP_NODELAY`` on the socket it holds; the
        router→worker hop's sub-millisecond latency rests on it, so pin it."""
        with HttpClient(backend.url) as client:
            assert client.post("/ping", json_body={"n": 1}).ok
            sock = client._local.conn.sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_each_thread_gets_its_own_connection(self, backend):
        with HttpClient(backend.url) as client:
            done = threading.Barrier(3)

            def hammer():
                for _ in range(5):
                    client.get("/ping")
                done.wait()

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            done.wait()
            for thread in threads:
                thread.join()
        assert backend.requests == 10
        # One socket per thread — not one per request, not one shared.
        assert backend.connections == 2

    def test_retries_once_when_the_keepalive_socket_went_stale(self):
        # This server claims HTTP/1.1 keep-alive but silently closes after
        # every response — exactly what a worker restart does to the
        # router's cached connection.  The client must retry each request
        # on a fresh socket instead of surfacing the stale-socket error.
        class _Liar(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(65536)
                body = b'{"pong": true}'
                self.request.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Liar)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with HttpClient(f"http://{host}:{port}") as client:
                for _ in range(3):
                    assert client.get("/ping").json() == {"pong": True}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2)


class TestErrors:
    def test_json_helpers_raise_on_http_errors(self, backend):
        with HttpClient(backend.url) as client:
            with pytest.raises(TransportError, match="503"):
                client.get_json("/boom")

    def test_unreachable_host_raises_transport_error(self):
        with HttpClient("http://127.0.0.1:1", timeout=0.5) as client:
            with pytest.raises(TransportError):
                client.get("/ping")

    def test_base_url_must_be_http(self):
        with pytest.raises(TransportError, match="http://host:port"):
            HttpClient("ftp://127.0.0.1:21")

    def test_the_payload_stays_bytes_and_still_reads_as_json_and_text(self, backend):
        with HttpClient(backend.url) as client:
            response = client.get("/ping")
            assert response.body == b'{"pong": true, "body": {}}'
            assert response.json() == {"pong": True, "body": {}}
            assert response.text == '{"pong": true, "body": {}}'
            # Error messages quote the text, not a bytes repr.
            with pytest.raises(TransportError, match=r'503: \{"error": "backend unhappy"\}'):
                client.get_json("/boom")

    def test_post_json_round_trips_a_body(self, backend):
        with HttpClient(backend.url) as client:
            body = client.post_json("/ping", {"records": [1, 2, 3]})
        assert body == {"pong": True, "body": {"records": [1, 2, 3]}}


@contextlib.contextmanager
def _canned(answer: bytes, *, close: bool = False, hold: float = 0.0):
    """A raw peer answering every request head with ``answer``.

    ``close`` ends the connection after each answer; ``hold`` keeps it open
    that long afterwards without reading, so a client that reused it would
    wait.  Yields the peer, whose ``connections`` counts TCP accepts.
    """

    class _Peer(socketserver.BaseRequestHandler):
        def handle(self):
            peer.connections += 1
            seen = b""
            while chunk := self.request.recv(65536):
                seen += chunk
                while b"\r\n\r\n" in seen:
                    _, _, seen = seen.partition(b"\r\n\r\n")
                    self.request.sendall(answer)
                    if close or hold:
                        time.sleep(hold)
                        return

    peer = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Peer)
    peer.daemon_threads = True
    peer.connections = 0
    thread = threading.Thread(
        target=peer.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield peer
    finally:
        peer.shutdown()
        peer.server_close()
        thread.join(timeout=2)


def _url(peer) -> str:
    return "http://%s:%d" % peer.server_address[:2]


class TestResponseFraming:
    """One reader serves ``request`` and ``stream``: a length, chunks, or
    the bytes up to the peer's close."""

    FRAMINGS = {
        "content-length": b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world",
        "chunked": (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"
        ),
        "close-delimited": b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello world",
    }

    @pytest.mark.parametrize("framing", sorted(FRAMINGS))
    def test_each_framing_reads_the_whole_body(self, framing):
        delimited_by_close = framing == "close-delimited"
        with _canned(self.FRAMINGS[framing], close=delimited_by_close) as peer:
            with HttpClient(_url(peer)) as client:
                for _ in range(2):
                    assert client.get("/x").body == b"hello world"
                with client.stream("/x") as stream:
                    assert b"".join(stream.chunks()) == b"hello world"
        # The stream has a socket of its own; only a close-delimited body
        # costs request() a second connection.
        assert peer.connections == (3 if delimited_by_close else 2)

    def test_a_chunked_body_ends_at_its_last_chunk_when_the_peer_closes(self):
        answer = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n"
        )
        with _canned(answer, close=True) as peer:
            with HttpClient(_url(peer), timeout=2.0) as client:
                assert client.get("/x").body == b"hello"

    def test_a_peers_connection_close_drops_the_socket(self):
        answer = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
        with _canned(answer, hold=5.0) as peer:
            with HttpClient(_url(peer), timeout=5.0) as client:
                started = time.perf_counter()
                for _ in range(3):
                    assert client.get("/x").body == b"ok"
                # Reusing the held-open socket would have waited out the hold.
                assert time.perf_counter() - started < 2.0
        assert peer.connections == 3


class TestResponseLimits:
    """The limits ``http.client`` put on a response head: 64 KiB a line and
    100 lines, the blank line that ends the head included."""

    @staticmethod
    def _head(*lines: bytes) -> bytes:
        return b"HTTP/1.1 200 OK\r\n" + b"".join(lines) + b"Content-Length: 2\r\n\r\nok"

    def test_a_header_line_over_64_kib_is_refused(self):
        with _canned(self._head(b"X-Big: " + b"a" * 65536 + b"\r\n")) as peer:
            with HttpClient(_url(peer), timeout=2.0) as client:
                with pytest.raises(TransportError):
                    client.get("/x")

    def test_a_status_line_over_64_kib_is_refused(self):
        answer = b"HTTP/1.1 200 " + b"O" * 65536 + b"\r\nContent-Length: 0\r\n\r\n"
        with _canned(answer) as peer:
            with HttpClient(_url(peer), timeout=2.0) as client:
                with pytest.raises(TransportError):
                    client.get("/x")

    @pytest.mark.parametrize("fields, ok", [(98, True), (100, False)])
    def test_the_header_count_is_bounded(self, fields, ok):
        lines = [b"X-H%d: v\r\n" % i for i in range(fields)]  # + Content-Length
        with _canned(self._head(*lines)) as peer:
            with HttpClient(_url(peer), timeout=2.0) as client:
                if ok:
                    assert client.get("/x").body == b"ok"
                else:
                    with pytest.raises(TransportError):
                        client.get("/x")


class TestStreamDelivery:
    def test_each_frame_arrives_as_its_chunk_is_sent(self):
        """The second frame is not produced until the first was read, so a
        client that waited for more bytes would deadlock (here: time out)."""
        first_read = threading.Event()
        app = WebApp("frames")

        @app.route("/sse")
        def sse(_request: Request):
            def frames():
                yield "data: 1\n\n"
                first_read.wait(5)
                yield "data: 2\n\n"

            return StreamingResponse(frames())

        server = make_server(app)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            with HttpClient("http://%s:%d" % server.server_address[:2], timeout=5.0) as client:
                chunks = client.stream("/sse").chunks()
                started = time.perf_counter()
                assert next(chunks) == b"data: 1\n\n"
                assert time.perf_counter() - started < 2.0
                first_read.set()
                assert next(chunks) == b"data: 2\n\n"
                assert list(chunks) == []
        finally:
            first_read.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=2)
