"""FleetRouter unit tests: proxying, failover, and the control plane.

The router is exercised in isolation from real worker processes: a
:class:`FleetSupervisor` is constructed but never ``start()``-ed (so it
spawns nothing and accepts any registering pid), and the "workers" are
tiny in-thread echo servers bound to ephemeral ports.  That keeps every
routing decision observable — the echo body says which backend actually
served the request — without a single subprocess.
"""

from __future__ import annotations

import http.client
import threading

import pytest

from repro.fleet import FleetRouter, FleetSupervisor
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
        thread = threading.Thread(target=server.serve_forever, daemon=True)
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
        body = client.get("/projects/alpha/dataframe?names=metric&primary=1").json()
        assert body["query"] == {"names": "metric", "primary": "1"}

    def test_a_relayed_answer_has_one_server_and_one_date_header(self, fleet):
        """The worker's ``Server`` / ``Date`` / ``Content-Length`` describe the
        router↔worker hop; relayed verbatim, the client saw each twice."""
        _, router, client = fleet
        relayed = client.get("/projects/alpha/dataframe?names=metric")
        assert isinstance(relayed.body, bytes)  # as it arrived, not transcoded
        assert sorted(relayed.headers) == ["Content-Type"]
        front = make_server(router)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
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
