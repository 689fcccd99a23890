"""Tests for the socket-facing HTTP bridge behind ``repro serve``."""

from __future__ import annotations

import contextlib
import json
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.fleet import FleetRouter, FleetSupervisor
from repro.qos import AdmissionController, PolicyRule, PolicyStore
from repro.service import FlorService
from repro.service.server import make_server, serve
from repro.webapp.framework import Request, Response, WebApp


@pytest.fixture()
def running_service(tmp_path):
    """A FlorService behind a real socket on an ephemeral port."""
    service = FlorService(tmp_path / "host", flush_size=2, flush_interval=None)
    address = {}
    ready = threading.Event()
    stop = threading.Event()

    def on_ready(host: str, port: int) -> None:
        address.update(host=host, port=port)
        ready.set()

    thread = threading.Thread(
        target=serve,
        args=(service.app(),),
        kwargs=dict(port=0, quiet=True, ready=on_ready, shutdown_event=stop),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5), "server did not come up"
    yield f"http://{address['host']}:{address['port']}", service
    stop.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    service.close()


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


class TestBridge:
    def test_append_and_query_over_a_real_socket(self, running_service):
        base, _ = running_service
        status, body = _post(
            base + "/projects/alpha/logs",
            {"records": [{"name": "loss", "value": 0.5}, {"name": "loss", "value": 0.4, "ctx_id": 1}]},
        )
        assert status == 202
        assert body["queued"] == 2
        status, body = _get(base + "/projects/alpha/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs")
        assert status == 200
        assert body["records"] == [{"n": 2}]

    def test_write_sql_is_rejected_with_400(self, running_service):
        base, _ = running_service
        _post(base + "/projects/alpha/logs", {"records": [{"name": "loss", "value": 1.0}]})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/projects/alpha/sql?q=DROP%20TABLE%20logs")
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, running_service):
        base, _ = running_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_healthz(self, running_service):
        base, _ = running_service
        status, body = _get(base + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_concurrent_http_clients(self, running_service):
        base, service = running_service
        errors = []

        def worker(worker_id: int) -> None:
            for i in range(10):
                try:
                    _post(
                        base + "/projects/shared/logs",
                        {"records": [{"name": "m", "value": worker_id, "ctx_id": i}]},
                    )
                except Exception as exc:  # noqa: BLE001 - collected for the assertion
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        _, body = _get(base + "/projects/shared/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs")
        assert body["records"] == [{"n": 40}]


class TestMalformedRequests:
    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_unusable_content_length_is_a_400_and_closes(self, running_service, content_length):
        """``-1`` used to park the handler thread in ``rfile.read(-1)``;
        ``abc`` raised out of it and dropped the connection unanswered."""
        base, _ = running_service
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=2) as sock:
            sock.sendall(
                b"POST /projects/alpha/logs HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: " + content_length.encode() + b"\r\n"
                b"\r\n"
            )
            raw = b""
            while chunk := sock.recv(4096):  # until the server closes, within the timeout
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]
        # The listener is unharmed.
        assert _get(base + "/healthz")[0] == 200


@contextlib.contextmanager
def _listening(app):
    """``make_server(app)`` serving on a thread; yields the server."""
    server = make_server(app)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)
        assert not thread.is_alive()


class _AliveProcess:
    """Stands in for a supervised worker's Popen (see tests/fleet)."""

    pid = 1000

    def poll(self):
        return None


@contextlib.contextmanager
def _front(kind: str, root, *, qos: bool = False):
    """The two shapes ``make_server`` is deployed in, with tenant ``alpha``
    written once: a service on its own socket (``plain``), and the fleet
    router's socket in front of one in-process worker (``router``).
    ``small_get`` is a cheap keep-alive GET that, behind the router, crosses
    the router→worker hop too (the router answers ``/healthz`` itself).
    With ``qos`` the deployment's one admission point enforces ``policies``:
    the service itself, or the router in front of a worker that does not."""
    service = FlorService(
        root, flush_interval=None, qos=qos and kind == "plain", admission_refresh=0.0
    )
    with contextlib.ExitStack() as stack:
        stack.callback(service.close)
        address = stack.enter_context(_listening(service.app())).server_address[:2]
        small_get = "/healthz"
        policies = service.policies if qos else None
        if kind == "router":
            admission = None
            if qos:
                policies = PolicyStore.open(root)
                admission = AdmissionController(policies, refresh_interval=0.0)
            supervisor = FleetSupervisor(lambda wid, url: ["unused"], workers=1)
            supervisor._handles["w0"].process = _AliveProcess()
            supervisor.on_register("w0", "http://%s:%d" % address, pid=_AliveProcess.pid)
            router = FleetRouter(
                supervisor, failover_timeout=0.5, policies=policies, admission=admission
            )
            stack.callback(router.close)
            address = stack.enter_context(_listening(router)).server_address[:2]
            small_get = "/projects/alpha/stats"
        base = "http://%s:%d" % address
        assert _post(base + "/projects/alpha/logs", {"records": [{"name": "m", "value": 0}]})[0] == 202
        yield SimpleNamespace(
            address=address, base=base, service=service, small_get=small_get, policies=policies
        )


@pytest.fixture(params=["plain", "router"])
def front(request, tmp_path):
    with _front(request.param, tmp_path / "host") as deployed:
        yield deployed


@pytest.fixture(params=["plain", "router"])
def qos_front(request, tmp_path):
    with _front(request.param, tmp_path / "host", qos=True) as deployed:
        yield deployed


def _post_status(url: str, payload: dict) -> tuple[int, dict]:
    try:
        return _post(url, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestAdmissionChargesAlikeAtBothFronts:
    def test_only_an_append_body_counts_against_the_byte_quota(self, qos_front):
        """One sub-path table (``service.app.ADMITTED_SUBPATHS``) says what a
        request costs, so the same body gets the same verdict through plain
        ``serve`` and through ``serve --workers N``."""
        qos_front.policies.put(PolicyRule(selector="alpha", byte_quota=64, window_seconds=60.0))
        bulky = "x" * 200  # alone larger than the tenant's whole quota
        project = qos_front.base + "/projects/alpha"
        assert _post_status(project + "/commit", {"message": bulky})[0] == 200
        status, _ = _post_status(
            project + "/jobs/backfill", {"filename": "train.py", "new_source": bulky}
        )
        assert status == 202
        status, body = _post_status(
            project + "/logs", {"records": [{"name": "m", "value": bulky}]}
        )
        assert status == 413
        assert body["detail"]["reason"] == "too_large"


def _get_bytes(path: str) -> bytes:
    return b"GET " + path.encode() + b" HTTP/1.1\r\nHost: test\r\n\r\n"


def _read_response(sock: socket.socket) -> tuple[bytes, bytes]:
    """One ``Content-Length``-framed response off a keep-alive socket."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        raw += sock.recv(65536)
    head, _, body = raw.partition(b"\r\n\r\n")
    length = int(_header(head, b"content-length"))
    while len(body) < length:
        body += sock.recv(65536)
    return head, body


def _header(head: bytes, name: bytes) -> bytes:
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == name:
            return value.strip()
    raise AssertionError(f"no {name!r} header in {head!r}")


def _recv_until(sock: socket.socket, marker: bytes, seen: bytes = b"") -> bytes:
    while marker not in seen:
        chunk = sock.recv(65536)
        assert chunk, f"stream closed before {marker!r}: {seen!r}"
        seen += chunk
    return seen


class TestUnparsableBodies:
    """A body ``json.loads`` refuses is the client's fault: 400, not 500."""

    @pytest.mark.parametrize(
        "body",
        [b'{"records": "\xff"}', b'{"records": [{"name": "m", "value": 1' + b"1" * 4300 + b"}]}",
         b"[" * 100_000],
        ids=["invalid-utf8", "int-past-digit-limit", "nested-100k-deep"],
    )
    def test_is_a_400_and_the_listener_serves_on(self, front, body):
        with socket.create_connection(front.address, timeout=5) as sock:
            sock.sendall(
                b"POST /projects/alpha/logs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            head, answer = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 400 "), head
            assert "not valid JSON" in json.loads(answer)["error"]
            sock.sendall(_get_bytes(front.small_get))
            assert _read_response(sock)[0].startswith(b"HTTP/1.1 200 ")

    @pytest.mark.parametrize(
        "record",
        [b'{"name": "bad", "value": "\\ud800"}', b'{"name": "\\udfff", "value": 1}',
         b'{"name": "bad", "value": 1, "filename": "x\\uDA00.py"}'],
        ids=["value", "name", "filename"],
    )
    def test_a_lone_surrogate_is_a_400_and_a_pair_is_accepted(self, front, record):
        """A lone surrogate escape decodes to text no UTF-8 column can hold:
        acked, it would drop every row coalesced beside it at the write."""
        lone = b'{"records": [{"name": "ok", "value": 1}, ' + record + b"]}"
        pair = b'{"records": [{"name": "smile", "value": "\\ud83d\\ude00"}]}'
        with socket.create_connection(front.address, timeout=5) as sock:
            for body, status in ((lone, b"400"), (pair, b"202")):
                sock.sendall(
                    b"POST /projects/alpha/logs HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                head, answer = _read_response(sock)
                assert head.startswith(b"HTTP/1.1 " + status + b" "), (head, answer)
            sock.sendall(_get_bytes(front.small_get))
            assert _read_response(sock)[0].startswith(b"HTTP/1.1 200 ")
        with front.service.pool.checkout("alpha") as shard:
            shard.flush()
            stored = shard.session.db.query("SELECT value_name, value FROM logs ORDER BY seq")
        assert stored == [("m", "0"), ("smile", "\U0001f600")]


class TestSmallResponseFloor:
    """Head and body used to leave as two small segments, the second held
    ≈40 ms by Nagle until the client's delayed ACK — on every keep-alive
    exchange after the connection's first few (which Linux ACKs quickly,
    hence the warm-ups)."""

    def test_keep_alive_round_trips_take_milliseconds(self, front):
        with socket.create_connection(front.address, timeout=5) as sock:
            trips = []
            for i in range(22):
                started = time.perf_counter()
                sock.sendall(_get_bytes(front.small_get))
                head, _ = _read_response(sock)
                if i >= 2:
                    trips.append(time.perf_counter() - started)
                assert head.startswith(b"HTTP/1.1 200 ")
        assert statistics.median(trips) < 0.010, sorted(trips)

    def test_small_response_arrives_in_one_piece(self, front):
        with socket.create_connection(front.address, timeout=5) as sock:
            for _ in range(2):
                sock.sendall(_get_bytes(front.small_get))
                _read_response(sock)
            sock.sendall(_get_bytes(front.small_get))
            first = sock.recv(65536)
        head, separator, body = first.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ") and separator
        assert len(body) == int(_header(head, b"content-length")) > 0
        json.loads(body)

    def test_accepted_sockets_have_nagle_off(self, tmp_path):
        """One write per response leaves Nagle nothing to hold; bursts of
        stream frames are what still need ``TCP_NODELAY``."""
        service = FlorService(tmp_path / "host")
        accepted = []
        with _listening(service.app()) as server:
            accept = server.get_request

            def recording_accept():
                connection, peer = accept()
                accepted.append(connection)
                return connection, peer

            server.get_request = recording_accept
            with socket.create_connection(server.server_address[:2], timeout=5) as sock:
                sock.sendall(_get_bytes("/healthz"))
                _read_response(sock)
                (connection,) = accepted
                assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        service.close()


class TestStreamIsNotHeldBack:
    def test_tail_opens_at_once_and_frames_follow_their_commit(self, front):
        with socket.create_connection(front.address, timeout=5) as sock:
            started = time.perf_counter()
            sock.sendall(_get_bytes("/projects/alpha/tail?keepalive=0.05"))
            seen = _recv_until(sock, b": tail of alpha")
            assert time.perf_counter() - started < 0.050
            head = seen.partition(b"\r\n\r\n")[0]
            assert head.startswith(b"HTTP/1.1 200 ")
            assert _header(head, b"transfer-encoding") == b"chunked"
            # A row committed while the subscriber is parked on the broker.
            _post(front.base + "/projects/alpha/logs", {"records": [{"name": "live", "value": 1}]})
            with front.service.pool.checkout("alpha") as shard:
                shard.flush()
            committed = time.perf_counter()
            _recv_until(sock, b'"name": "live"', seen)
            assert time.perf_counter() - committed < 0.050


class TestClientDisconnect:
    """A peer that resets mid-response costs its own connection only — no
    traceback on stderr (``--quiet`` means quiet), no dead listener."""

    @pytest.fixture()
    def app_address(self):
        release = threading.Event()
        app = WebApp("disconnects")

        @app.route("/big")
        def big(_request: Request):
            return Response(body="x" * (8 << 20), headers={"Content-Type": "text/plain"})

        @app.route("/slow")
        def slow(_request: Request):
            release.wait(5)
            return Response(body="late", headers={"Content-Type": "text/plain"})

        @app.route("/ok")
        def ok(_request: Request):
            return Response(body="ok", headers={"Content-Type": "text/plain"})

        with _listening(app) as server:
            yield server.server_address[:2], release

    @pytest.mark.parametrize("path", ["/big", "/slow"])
    def test_reset_while_sending_is_silent_and_survivable(self, app_address, capsys, path):
        address, release = app_address
        handlers_before = threading.active_count()
        sock = socket.create_connection(address, timeout=5)
        sock.sendall(_get_bytes(path))
        if path == "/big":
            assert sock.recv(100)  # the response has started ...
        # ... and the peer vanishes with an RST, not a FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        time.sleep(0.05)
        release.set()
        deadline = time.monotonic() + 5
        while threading.active_count() > handlers_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= handlers_before, "handler thread still running"
        with urllib.request.urlopen("http://%s:%d/ok" % address) as response:
            assert response.read() == b"ok"
        assert capsys.readouterr().err == ""


class TestBodyTypes:
    """A ``str`` body is encoded on the way out, a ``bytes`` body is the wire
    form already; either way ``Content-Length`` counts the bytes sent."""

    TEXT = "naïve — ünïcode ✓ " * 4000  # multi-byte: characters != bytes

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_body_arrives_intact_with_its_byte_length(self, as_bytes):
        app = WebApp("bodies")
        encoded = self.TEXT.encode("utf-8")

        @app.route("/body")
        def body(_request: Request):
            return Response(
                body=encoded if as_bytes else self.TEXT, headers={"Content-Type": "text/plain"}
            )

        with _listening(app) as server:
            with urllib.request.urlopen("http://%s:%d/body" % server.server_address[:2]) as response:
                assert response.headers["Content-Length"] == str(len(encoded))
                assert len(encoded) > len(self.TEXT)
                assert response.read() == encoded

    def test_an_encoded_dataframe_crosses_the_socket_unchanged(self, running_service):
        base, service = running_service
        _post(base + "/projects/alpha/logs", {"records": [{"name": "loss", "value": "é"}]})
        with urllib.request.urlopen(base + "/projects/alpha/dataframe?names=loss") as response:
            wire = response.read()
            assert response.headers["Content-Length"] == str(len(wire))
        with service.pool.checkout("alpha") as shard:
            (entry,) = shard.session.query.cache._entries.values()
            assert wire == entry.bodies[(("loss",), False)]


class TestDateHeader:
    def test_the_date_header_is_an_rfc_7231_date_of_now(self):
        from email.utils import formatdate, parsedate_to_datetime

        from repro.webapp.http1 import http_date

        value = http_date()
        stamp = parsedate_to_datetime(value).timestamp()
        assert value == formatdate(stamp, usegmt=True)
        assert abs(stamp - time.time()) < 2


class TestMakeServer:
    def test_port_zero_binds_an_ephemeral_port(self, tmp_path):
        service = FlorService(tmp_path / "h2")
        server = make_server(service.app(), port=0)
        try:
            assert server.server_address[1] > 0
        finally:
            server.server_close()
            service.close()


# --------------------------------------------------------------------------
# The wire: what the request-head parser accepts and refuses, byte by byte.
# --------------------------------------------------------------------------


@contextlib.contextmanager
def _raw(base: str):
    """A raw socket to ``base`` and a buffered reader over it."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        with sock.makefile("rb") as reader:
            yield sock, reader


def _read_one(reader) -> tuple[int, dict[str, str], bytes]:
    """One ``Content-Length``-framed response: status, headers (lower-case
    names), body.  A page without a status line fails the assertion."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    status = int(status_line.split()[1])
    body = b"" if status == 100 else reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _append_body(value: int = 1) -> bytes:
    return json.dumps({"records": [{"name": "loss", "value": value}]}).encode()


def _answered_then_closed(base: str, raw: bytes, status: int) -> bytes:
    """Send ``raw``; expect one ``status`` answer with ``Connection: close``,
    then the server's close (each byte sent was read before the answer, so
    the close is a FIN, never a reset that could drop the answer)."""
    with _raw(base) as (sock, reader):
        sock.sendall(raw)
        got, headers, body = _read_one(reader)
        assert got == status, body
        assert headers["connection"] == "close"
        assert reader.read() == b""
    return body


def _healthz_round_trip(sock, reader) -> None:
    """The connection still frames requests: a second one is answered."""
    sock.sendall(_get_bytes("/healthz"))
    status, _, body = _read_one(reader)
    assert status == 200 and json.loads(body)["status"] == "ok"


class TestWireRefusals:
    """A framing the keep-alive stream cannot survive, or a head that is not
    HTTP/1.x, gets one JSON refusal behind a real status line; then the
    server closes instead of reading leftover bytes as the next request."""

    @staticmethod
    def _refused(base: str, raw: bytes, status: int) -> dict:
        return json.loads(_answered_then_closed(base, raw, status))

    def test_a_chunked_request_is_411_and_closes(self, running_service):
        base, _ = running_service
        body = _append_body()
        raw = (
            b"POST /projects/p1/logs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
        )
        assert "Transfer-Encoding" in self._refused(base, raw, 411)["error"]

    @pytest.mark.parametrize("first", [b"Content-Length", b"content-length"])
    def test_conflicting_content_lengths_are_400_and_close(self, running_service, first):
        base, _ = running_service
        body = _append_body()
        raw = (
            b"POST /projects/p1/logs HTTP/1.1\r\nHost: t\r\n"
            + first + b": 5\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        )
        assert "Content-Length" in self._refused(base, raw, 400)["error"]

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"HELLO\r\n\r\n", 400),
            (b"POST /healthz\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
            (b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Folded: a\r\n  b\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\nno colon here\r\n\r\n", 400),
        ],
        ids=["one-word", "no-version", "http-2", "space-before-colon", "obs-fold", "no-colon"],
    )
    def test_a_malformed_head_gets_a_json_error_and_closes(self, running_service, raw, status):
        base, _ = running_service
        assert self._refused(base, raw, status)["error"]


class TestWireBehaviourKept:
    """What the stdlib parser did that clients rely on: its limits, the
    ``//`` guard, HTTP/1.0 and ``Expect`` handling, header names in any case."""

    def test_a_request_line_over_64_kib_is_414(self, running_service):
        base, _ = running_service
        line = b"GET /" + b"a" * 65536
        _answered_then_closed(base, line[:65537], 414)

    def test_a_header_line_over_64_kib_is_431(self, running_service):
        base, _ = running_service
        header = b"X-Big: " + b"a" * 65530
        _answered_then_closed(base, b"GET /healthz HTTP/1.1\r\n" + header, 431)

    def test_more_than_100_headers_is_431(self, running_service):
        base, _ = running_service
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        _answered_then_closed(base, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n", 431)

    def test_99_headers_are_accepted(self, running_service):
        # The stdlib counts the blank line that ends the head as the 100th.
        base, _ = running_service
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(99))
        with _raw(base) as (sock, reader):
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            assert _read_one(reader)[0] == 200

    def test_a_double_slash_target_is_served_as_a_path(self, running_service):
        base, _ = running_service
        with _raw(base) as (sock, reader):
            sock.sendall(_get_bytes("//healthz"))
            status, _, body = _read_one(reader)
            assert status == 200 and json.loads(body)["status"] == "ok"

    def test_http_1_0_closes_after_the_response(self, running_service):
        base, _ = running_service
        with _raw(base) as (sock, reader):
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            assert _read_one(reader)[0] == 200
            assert reader.read() == b""

    def test_http_1_0_keep_alive_keeps_the_connection(self, running_service):
        base, _ = running_service
        with _raw(base) as (sock, reader):
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                assert _read_one(reader)[0] == 200

    def test_expect_100_continue_is_answered_before_the_body(self, running_service):
        base, _ = running_service
        body = _append_body()
        with _raw(base) as (sock, reader):
            sock.sendall(
                b"POST /projects/p1/logs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\nContent-Length: %d\r\n"
                b"Expect: 100-continue\r\n\r\n" % len(body)
            )
            assert _read_one(reader)[0] == 100
            sock.sendall(body)
            status, _, answer = _read_one(reader)
            assert status == 202 and json.loads(answer)["queued"] == 1

    @pytest.mark.parametrize("name", [b"content-length", b"CONTENT-LENGTH"])
    def test_any_case_content_length_frames_the_body(self, running_service, name):
        base, _ = running_service
        body = _append_body()
        with _raw(base) as (sock, reader):
            sock.sendall(
                b"POST /projects/p1/logs HTTP/1.1\r\nHost: t\r\n"
                + name + b": %d\r\n\r\n" % len(body) + body
            )
            assert _read_one(reader)[0] == 202
            _healthz_round_trip(sock, reader)

    def test_identical_repeated_content_lengths_are_accepted(self, running_service):
        base, _ = running_service
        body = _append_body()
        with _raw(base) as (sock, reader):
            sock.sendall(
                b"POST /projects/p1/logs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\ncontent-length: %d\r\n\r\n" % (len(body), len(body))
                + body
            )
            assert _read_one(reader)[0] == 202
            _healthz_round_trip(sock, reader)

    def test_headers_are_found_whatever_their_case(self):
        from repro.service.app import request_header

        app = WebApp("probe")

        @app.route("/probe")
        def probe(request: Request):
            return Response(body=request_header(request, "x-probe") or "", headers={})

        seen = []
        with _listening(app) as server:
            cls = server.RequestHandlerClass
            do_get = cls.do_GET

            def spying(handler):  # what the perf ledger's tracer does
                seen.append(handler.headers.get("x-ledger-op"))
                return do_get(handler)

            cls.do_GET = spying
            with _raw("http://%s:%d" % server.server_address[:2]) as (sock, reader):
                sock.sendall(b"GET /probe HTTP/1.1\r\nX-PROBE: v1\r\nX-Ledger-Op: 7\r\n\r\n")
                status, _, body = _read_one(reader)
        assert (status, body) == (200, b"v1")
        assert seen == ["7"]
