"""End-to-end fleet test: real supervisor, real workers, real sockets.

One ``repro serve --workers 2`` boot serves the whole module (the fixture
is the expensive part); each test observes a different face of it —
routing, ingest + primary reads through the proxy, stats aggregation,
worker self-identification, graceful shutdown.
"""

from __future__ import annotations

import json
import urllib.request
from urllib.parse import quote

import pytest

from repro.testing import FleetProcess


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    with FleetProcess(tmp_path_factory.mktemp("fleet") / "root", workers=2) as process:
        yield process
    # __exit__ hard-kills any survivor; the shutdown test terminates first.


@pytest.fixture(scope="module")
def placed(fleet):
    """Two projects the ring puts on different workers."""
    return fleet.projects_on_distinct_workers(2)


def _ingest(fleet, project: str, values: list[float]) -> None:
    response = fleet.post(
        f"/projects/{project}/logs",
        {
            "filename": "load.py",
            "records": [
                {"name": "metric", "value": value, "ctx_id": ctx}
                for ctx, value in enumerate(values)
            ],
        },
    )
    assert response["queued"] == len(values)


class TestFleetEndToEnd:
    def test_boot_registers_every_worker(self, fleet):
        health = fleet.get("/healthz")
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["fleet"]["registered"] == 2
        assert health["fleet"]["ring"] == ["w0", "w1"]
        views = fleet.worker_views()
        assert [view["id"] for view in views] == ["w0", "w1"]
        for view in views:
            assert view["alive"] and view["registered"]
            assert view["restarts"] == 0
            assert view["url"].startswith("http://127.0.0.1:")

    def test_resolution_is_stable_and_disjoint(self, fleet, placed):
        assert sorted(set(placed.values())) == ["w0", "w1"]
        for project, owner in placed.items():
            # Asking repeatedly, and via both routes, never changes the answer.
            assert fleet.resolve(project) == owner
            body = fleet.get(f"/fleet/resolve?project={project}")
            assert body["worker"] == owner
            assert body["url"].startswith("http://")

    def test_ingest_and_primary_read_through_the_proxy(self, fleet, placed):
        for offset, project in enumerate(placed):
            _ingest(fleet, project, [offset + 0.1, offset + 0.2])
        for offset, project in enumerate(placed):
            # primary=1 is the flush barrier; the sql read checks the rows.
            frame = fleet.get(f"/projects/{project}/dataframe?names=metric&primary=1")
            assert frame["rows"] >= 1
            query = quote("SELECT value FROM logs WHERE value_name = 'metric'")
            stored = fleet.get(f"/projects/{project}/sql?q={query}")
            values = {float(record["value"]) for record in stored["records"]}
            assert {offset + 0.1, offset + 0.2} <= values

    def test_a_proxied_read_carries_each_header_once(self, fleet, placed):
        project = next(iter(placed))
        _ingest(fleet, project, [0.5])
        url = f"{fleet.base_url}/projects/{project}/dataframe?names=metric&primary=1"
        with urllib.request.urlopen(url, timeout=30) as response:
            body = response.read()
            names = sorted(name.lower() for name in response.headers.keys())
        assert names == ["content-length", "content-type", "date", "server"]
        assert json.loads(body)["rows"] >= 1

    def test_project_stats_name_the_serving_worker(self, fleet, placed):
        for project, owner in placed.items():
            stats = fleet.get(f"/projects/{project}/stats")
            assert stats["worker"] == owner
            assert stats["project"] == project

    def test_worker_stats_identify_themselves(self, fleet, placed):
        """Satellite: a worker's /service/stats carries id, shard count,
        heartbeat age — visible through the fleet aggregation."""
        body = fleet.get("/service/stats")
        assert body["role"] == "router"
        assert set(body["workers"]) == {"w0", "w1"}
        open_shards = set(body["open_shards"])
        assert set(placed) <= open_shards
        for worker_id, stats in body["workers"].items():
            assert "error" not in stats
            ident = stats["worker"]
            assert ident["id"] == worker_id
            assert ident["pid"] > 0
            assert ident["owned_shards"] == len(stats["open_shards"])
            assert ident["heartbeat_age"] is not None
            assert ident["heartbeat_age"] < 30.0
        assert body["capacity"] > 0
        assert body["pool"]["misses"] >= len(placed)

    def test_jobs_routes_answer_through_any_worker(self, fleet):
        body = fleet.get("/jobs")
        assert body["jobs"] == []

    def test_sigterm_drains_and_exits_zero(self, fleet, placed):
        # Last test in the module by design: it takes the fleet down.
        _ingest(fleet, next(iter(placed)), [99.9])
        assert fleet.terminate() == 0
        assert not fleet.alive()
