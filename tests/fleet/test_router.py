"""FleetRouter unit tests: proxying, failover, and the control plane.

The router is exercised in isolation from real worker processes: a
:class:`FleetSupervisor` is constructed but never ``start()``-ed (so it
spawns nothing and accepts any registering pid), and the "workers" are
tiny in-thread echo servers bound to ephemeral ports.  That keeps every
routing decision observable — the echo body says which backend actually
served the request — without a single subprocess.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading

import pytest

from repro.fleet import FleetRouter, FleetSupervisor
from repro.service import FlorService
from repro.service.server import make_server
from repro.webapp.framework import JsonResponse, Request, Response, TestClient


class _EchoApp:
    """Answers every path with its own id — which backend served this?"""

    def __init__(self, backend_id: str):
        self.backend_id = backend_id

    def handle(self, request: Request) -> Response:
        if request.path == "/service/stats":
            return JsonResponse(
                {
                    "backend": self.backend_id,
                    "open_shards": [f"{self.backend_id}_shard"],
                    "capacity": 4,
                    "pool": {"hits": 1, "misses": 2},
                    "jobs": {"queued": 0},
                }
            )
        return JsonResponse(
            {
                "backend": self.backend_id,
                "method": request.method,
                "path": request.path,
                "query": request.query,
                "body": request.get_json(),
            }
        )


class _FakeProcess:
    """Stands in for the supervised Popen: always alive, fixed pid."""

    def __init__(self, pid: int):
        self.pid = pid

    def poll(self):
        return None


@pytest.fixture
def fleet():
    """Two echo backends registered as w0/w1 behind a real router."""
    servers, threads = [], []
    supervisor = FleetSupervisor(lambda wid, url: ["unused"], workers=2)
    for worker_id in ("w0", "w1"):
        server = make_server(_EchoApp(worker_id))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        servers.append(server)
        threads.append(thread)
        host, port = server.server_address[:2]
        supervisor._handles[worker_id].process = _FakeProcess(1000)
        supervisor.on_register(worker_id, f"http://{host}:{port}", pid=1000)
    router = FleetRouter(supervisor, failover_timeout=0.5)
    try:
        yield supervisor, router, TestClient(router)
    finally:
        router.close()
        for server in servers:
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=2)


class TestProxy:
    def test_project_requests_reach_the_ring_owner(self, fleet):
        supervisor, _, client = fleet
        for project in ("alpha", "beta", "gamma"):
            body = client.post(
                f"/projects/{project}/logs", json_body={"records": []}
            ).json()
            assert body["backend"] == supervisor.route(project)
            assert body["path"] == f"/projects/{project}/logs"
            assert body["body"] == {"records": []}

    def test_query_string_is_forwarded(self, fleet):
        _, _, client = fleet
        body = client.get("/projects/alpha/dataframe?names=metric&latest=1").json()
        assert body["query"] == {"names": "metric", "latest": "1"}

    def test_a_relayed_answer_has_one_server_and_one_date_header(self, fleet):
        """The relay passes on the worker's ``Server`` / ``Date`` /
        ``Content-Length`` and adds none of its own, so the client sees each
        once; in-process, ``headers`` holds the end-to-end fields only."""
        _, router, client = fleet
        relayed = client.get("/projects/alpha/dataframe?names=metric")
        assert isinstance(relayed.body, bytes)  # as it arrived, not transcoded
        assert sorted(relayed.headers) == ["Content-Type"]
        front = make_server(router)
        thread = threading.Thread(
            target=front.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            conn = http.client.HTTPConnection(*front.server_address[:2], timeout=5)
            for path in ("/projects/alpha/dataframe?names=metric", "/projects/alpha/stats"):
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                names = [name.lower() for name, _ in response.getheaders()]
                assert sorted(names) == ["content-length", "content-type", "date", "server"]
                assert response.getheader("Content-Length") == str(len(body))
            conn.close()
        finally:
            front.shutdown()
            front.server_close()
            thread.join(timeout=2)

    def test_project_stats_are_annotated_with_the_worker_id(self, fleet):
        supervisor, _, client = fleet
        body = client.get("/projects/alpha/stats").json()
        assert body["worker"] == supervisor.route("alpha")
        assert body["backend"] == body["worker"]

    def test_invalid_project_names_are_rejected_at_the_router(self, fleet):
        _, _, client = fleet
        assert client.get("/projects/..%2Fetc/stats").status == 400

    def test_jobs_routes_round_robin_over_workers(self, fleet):
        _, _, client = fleet
        backends = {client.get("/jobs").json()["backend"] for _ in range(6)}
        assert backends == {"w0", "w1"}

    def test_unreachable_worker_times_out_to_503(self, fleet):
        supervisor, _, client = fleet
        victim = supervisor.route("alpha")
        # Simulate a crash: dead url, nothing will re-register it.
        with supervisor._lock:
            handle = supervisor._handles[victim]
            handle.url = "http://127.0.0.1:1"
            handle.ready.clear()
        response = client.post("/projects/alpha/logs", json_body={"records": []})
        assert response.status == 503
        assert victim in response.json()["error"]


class TestControlPlane:
    def test_healthz_reports_fleet_summary(self, fleet):
        _, _, client = fleet
        body = client.get("/healthz").json()
        assert body["role"] == "router"
        assert body["fleet"]["registered"] == 2
        assert body["fleet"]["ring"] == ["w0", "w1"]

    def test_register_unknown_worker_id_is_conflict(self, fleet):
        _, _, client = fleet
        response = client.post(
            "/fleet/register",
            json_body={"worker_id": "w9", "url": "http://127.0.0.1:9", "pid": 5},
        )
        assert response.status == 409

    def test_heartbeat_refreshes_the_registered_pid_only(self, fleet):
        supervisor, _, client = fleet
        view = client.post(
            "/fleet/heartbeat", json_body={"worker_id": "w0", "pid": 1000}
        ).json()["worker"]
        assert view["heartbeat_age"] is not None
        stale = client.post(
            "/fleet/heartbeat", json_body={"worker_id": "w0", "pid": 4242}
        ).json()["worker"]
        assert stale["pid"] == 1000
        assert supervisor.on_heartbeat("w0", 1000)["registered"]

    def test_workers_view_lists_both(self, fleet):
        _, _, client = fleet
        body = client.get("/fleet/workers").json()
        assert [view["id"] for view in body["workers"]] == ["w0", "w1"]
        assert all(view["registered"] for view in body["workers"])

    def test_resolve_matches_routing_and_requires_project(self, fleet):
        supervisor, _, client = fleet
        body = client.get("/fleet/resolve?project=alpha").json()
        assert body["worker"] == supervisor.route("alpha")
        assert body["url"].startswith("http://")
        assert client.get("/fleet/resolve").status == 400

    def test_service_stats_aggregates_across_workers(self, fleet):
        _, _, client = fleet
        body = client.get("/service/stats").json()
        assert set(body["workers"]) == {"w0", "w1"}
        assert body["open_shards"] == ["w0_shard", "w1_shard"]
        assert body["capacity"] == 8
        assert body["pool"] == {"hits": 2, "misses": 4}
        assert body["jobs"] == {"queued": 0}

    def test_service_stats_marks_unregistered_workers(self, fleet):
        supervisor, _, client = fleet
        with supervisor._lock:
            supervisor._handles["w1"].registered = False
        body = client.get("/service/stats").json()
        assert "error" in body["workers"]["w1"]
        assert "backend" in body["workers"]["w0"]


class _Tap:
    """A TCP pass-through in front of a worker that keeps what crossed it:
    ``upstream`` (router → worker) and ``downstream`` (worker → router)
    bytes, and the number of connections the router opened."""

    def __init__(self, target: tuple[str, int]):
        self.target = target
        self.upstream, self.downstream = bytearray(), bytearray()
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://%s:%d" % self._listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            peer = socket.create_connection(self.target)
            for source, sink, seen in ((conn, peer, self.upstream), (peer, conn, self.downstream)):
                threading.Thread(target=self._pump, args=(source, sink, seen), daemon=True).start()

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket, seen: bytearray) -> None:
        with contextlib.suppress(OSError):
            while data := source.recv(65536):
                seen += data  # before it is passed on: a reply implies it was kept
                sink.sendall(data)
        with contextlib.suppress(OSError):
            sink.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        self._listener.close()


@contextlib.contextmanager
def _serving(app):
    """``make_server(app)`` on a thread; yields its address."""
    server = make_server(app)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


@contextlib.contextmanager
def _relay(app):
    """``app`` as worker ``w0`` behind a :class:`_Tap`, the router's socket in
    front; yields the router's address and the tap."""
    with contextlib.ExitStack() as stack:
        tap = _Tap(stack.enter_context(_serving(app)))
        stack.callback(tap.close)
        supervisor = FleetSupervisor(lambda wid, url: ["unused"], workers=1)
        supervisor._handles["w0"].process = _FakeProcess(1000)
        supervisor.on_register("w0", tap.url, pid=1000)
        router = FleetRouter(supervisor, failover_timeout=0.5)
        stack.callback(router.close)
        yield stack.enter_context(_serving(router)), tap


@contextlib.contextmanager
def _client(address):
    """A raw socket to ``address`` and a buffered reader over it."""
    with socket.create_connection(address, timeout=5) as sock:
        with sock.makefile("rb") as reader:
            yield sock, reader


def _answer(reader) -> bytes:
    """One ``Content-Length``-framed response, byte for byte as it arrived."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        assert line, f"connection closed mid-head: {head!r}"
        head += line
    length = next(
        int(line.partition(b":")[2])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    return head + reader.read(length)


def _request(path: str, *fields: bytes, body: bytes = b"") -> bytes:
    method = b"POST" if body else b"GET"
    return (
        method + b" " + path.encode() + b" HTTP/1.1\r\nHost: t\r\n"
        + b"".join(field + b"\r\n" for field in fields)
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


class TestRelayHeaders:
    """What crosses the hop: the router writes the worker's request head
    itself, and passes the worker's answer on byte for byte."""

    def test_a_clients_connection_fields_stay_off_the_hop_and_its_socket_is_kept(self):
        with _relay(_EchoApp("w0")) as (address, tap):
            with _client(address) as (sock, reader):
                requests = [
                    _request("/projects/alpha/stats", b"Connection: keep-alive",
                             b"Keep-Alive: timeout=5, max=2"),
                    _request("/projects/alpha/logs", body=b'{"records": []}'),
                    _request(
                        "/projects/alpha/stats", b"Connection: close", b"Keep-Alive: timeout=5"
                    ),
                ]
                for request in requests:
                    sock.sendall(request)
                    assert _answer(reader).startswith(b"HTTP/1.1 200 ")
                assert reader.read() == b""  # the client's close ends its own connection only
            sent = bytes(tap.upstream).lower()
        assert sent.count(b"host: ") == 3
        assert b"connection:" not in sent and b"keep-alive" not in sent
        assert tap.connections == 1

    @pytest.mark.parametrize("status", [429, 503])
    def test_a_workers_retry_after_reaches_the_client_byte_identical(self, status):
        class Busy:
            def handle(self, _request: Request) -> Response:
                return JsonResponse(
                    {"error": "busy"}, status=status, headers={"Retry-After": "0.250"}
                )

        with _relay(Busy()) as (address, tap):
            with _client(address) as (sock, reader):
                sock.sendall(_request("/projects/alpha/logs", body=b'{"records": []}'))
                answer = _answer(reader)
            assert answer == bytes(tap.downstream)
        assert answer.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nRetry-After: 0.250\r\n" in answer

    def test_a_keyed_resends_replayed_answer_reaches_the_client_byte_identical(self, tmp_path):
        service = FlorService(tmp_path / "host", flush_interval=None)
        append = _request(
            "/projects/alpha/logs", b"Content-Type: application/json", b"Idempotency-Key: k1",
            body=json.dumps({"records": [{"name": "loss", "value": 1}]}).encode(),
        )
        try:
            with _relay(service.app()) as (address, tap):
                with _client(address) as (sock, reader):
                    sock.sendall(append)
                    assert _answer(reader).startswith(b"HTTP/1.1 202 ")
                    sock.sendall(append)
                    replayed = _answer(reader)
                assert bytes(tap.downstream).endswith(replayed)
        finally:
            service.close()
        head, _, body = replayed.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ") and json.loads(body) == {"replayed": True}
