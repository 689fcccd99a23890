"""Endpoint round-trip tests for the multi-tenant service app."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.dataframe_view import build_dataframe
from repro.dataframe import frame_body
from repro.relational.queries import latest
from repro.service import FlorService
from repro.webapp.framework import TestClient


@pytest.fixture()
def service(tmp_path):
    service = FlorService(tmp_path / "host", pool_capacity=4, flush_size=4, flush_interval=None)
    yield service
    service.close()


@pytest.fixture()
def client(service):
    return TestClient(service.app())


def _append(client, project: str, values, **extra):
    payload = {
        "records": [{"name": "loss", "value": v, "ctx_id": i} for i, v in enumerate(values)]
    }
    payload.update(extra)
    return client.post(f"/projects/{project}/logs", json_body=payload)


class TestAppend:
    def test_bulk_append_is_acknowledged_with_202(self, client):
        response = _append(client, "alpha", [0.5, 0.4])
        assert response.status == 202
        body = response.json()
        assert body["queued"] == 2
        assert body["flushed"] is False
        assert body["pending"] == 2

    def test_batch_flush_on_size_through_the_endpoint(self, client, service):
        _append(client, "alpha", [0.5, 0.4])
        response = _append(client, "alpha", [0.3, 0.2])  # reaches flush_size=4
        assert response.json()["flushed"] is True
        assert response.json()["pending"] == 0
        with service.pool.checkout("alpha") as shard:
            # The size trigger handed the batch to the (async) flusher; the
            # shard flush is the durability barrier readers go through.
            shard.flush()
            assert shard.session.db.count("logs") == 4

    def test_append_accepts_loop_records(self, client, service):
        response = client.post(
            "/projects/alpha/logs",
            json_body={
                "filename": "train.py",
                "loops": [
                    {"loop_name": "epoch", "loop_iteration": 0, "ctx_id": 1, "iteration_value": "0"}
                ],
            },
        )
        assert response.status == 202
        with service.pool.checkout("alpha") as shard:
            shard.flush()
            assert shard.session.db.count("loops") == 1

    def test_empty_payload_is_rejected(self, client):
        response = client.post("/projects/alpha/logs", json_body={})
        assert response.status == 400

    def test_record_without_name_is_rejected(self, client):
        response = client.post(
            "/projects/alpha/logs", json_body={"records": [{"value": 1.0}]}
        )
        assert response.status == 400
        assert "name" in response.json()["error"]

    def test_a_rejected_payload_stages_none_of_its_records(self, client, service):
        _append(client, "alpha", [0.5])
        response = client.post(
            "/projects/alpha/logs",
            json_body={"records": [{"name": "a"}, {"name": "b"}, {"value": 3}]},
        )
        assert response.status == 400
        with service.pool.checkout("alpha") as shard:
            assert shard.pending == 1  # only the earlier, valid append
            assert shard.ingest["appended"] == 1

    def test_malformed_json_body_is_rejected(self, client):
        response = client.post("/projects/alpha/logs", body=b"{not json")
        assert response.status == 400

    def test_non_object_body_is_rejected(self, client):
        response = client.post("/projects/alpha/logs", json_body=[1, 2, 3])
        assert response.status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"records": [{"name": "x", "ctx_id": "abc"}]},
            {"loops": [{"loop_name": "epoch", "loop_iteration": "two"}]},
            {"loops": [{"loop_name": "epoch", "parent_ctx_id": "root"}]},
        ],
    )
    def test_non_integer_fields_are_a_400_not_a_500(self, client, payload):
        response = client.post("/projects/alpha/logs", json_body=payload)
        assert response.status == 400
        assert "integer" in response.json()["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"records": [{"name": "x", "ctx_id": 10**30}]},
            {"loops": [{"loop_name": "epoch", "ctx_id": 2**63}]},
            {"loops": [{"loop_name": "epoch", "parent_ctx_id": -(2**63) - 1}]},
            {"loops": [{"loop_name": "epoch", "loop_iteration": 10**30}]},
        ],
    )
    def test_a_key_past_64_bits_is_a_400_and_costs_no_neighbour_a_row(self, client, payload):
        """SQLite cannot store it, so it is refused before the ack — an acked
        one failed the tenant's next transaction, and the good rows with it."""
        assert _append(client, "alpha", [0.5]).status == 202
        response = client.post("/projects/alpha/logs", json_body=payload)
        assert response.status == 400
        assert "64-bit integer" in response.json()["error"]
        read = client.get("/projects/alpha/dataframe?names=loss")
        assert read.status == 200
        assert [row["loss"] for row in read.json()["records"]] == [0.5]
        assert client.get("/projects/alpha/stats").json()["dropped_rows_total"] == 0

    def test_the_64_bit_bounds_themselves_are_keys(self, client):
        for ctx_id in (2**63 - 1, -(2**63)):
            response = client.post(
                "/projects/alpha/logs", json_body={"records": [{"name": "x", "ctx_id": ctx_id}]}
            )
            assert response.status == 202
        response = client.get("/projects/alpha/sql?q=SELECT ctx_id FROM logs ORDER BY ctx_id")
        assert response.json()["records"] == [{"ctx_id": -(2**63)}, {"ctx_id": 2**63 - 1}]


class TestReads:
    def test_dataframe_reads_its_own_queued_writes(self, client):
        _append(client, "alpha", [0.5])  # stays pending (flush_size=4)
        response = client.get("/projects/alpha/dataframe?names=loss")
        assert response.status == 200
        body = response.json()
        assert body["rows"] == 1
        assert "loss" in body["columns"]
        assert body["records"][0]["loss"] == 0.5

    def test_dataframe_requires_names(self, client):
        assert client.get("/projects/alpha/dataframe").status == 400

    def test_sql_select_over_http(self, client):
        _append(client, "alpha", [0.5, 0.4, 0.3])
        response = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs")
        assert response.status == 200
        assert response.json()["records"] == [{"n": 3}]

    def test_sql_pivot_over_names(self, client):
        # Two runs (distinct tstamps) pivot into two rows; run-level logs in
        # the same run collapse into one.
        client.post(
            "/projects/alpha/logs",
            json_body={
                "records": [
                    {"name": "loss", "value": 0.5, "tstamp": "2025-01-01T00:00:00"},
                    {"name": "loss", "value": 0.4, "tstamp": "2025-01-02T00:00:00"},
                ]
            },
        )
        response = client.get(
            "/projects/alpha/sql?q=SELECT MAX(loss) AS worst FROM pivot&names=loss"
        )
        assert response.status == 200
        assert response.json()["records"][0]["worst"] == 0.5

    @pytest.mark.parametrize(
        "statement",
        [
            "DELETE FROM logs",
            "INSERT INTO logs VALUES (1)",
            "UPDATE logs SET value = 0",
            "DROP TABLE logs",
            "PRAGMA journal_mode=DELETE",
            # Smuggled past a prefix check; the authorizer must catch it.
            "WITH t AS (SELECT 1) DELETE FROM logs",
        ],
    )
    def test_writes_over_http_are_rejected(self, client, statement):
        _append(client, "alpha", [0.5])
        response = client.get(f"/projects/alpha/sql?q={statement}")
        assert response.status == 400
        assert "SELECT/WITH" in response.json()["error"]
        # The data survived the attempt.
        count = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        assert count["records"] == [{"n": 1}]

    @pytest.mark.parametrize(
        "comment", ["-- dashboard%0A", "/* d */ ", "  /* multi%0Aline */%0A-- and a line%0A"]
    )
    def test_a_statement_after_leading_comments_is_read(self, client, comment):
        _append(client, "alpha", [0.5])
        response = client.get(f"/projects/alpha/sql?q={comment}SELECT COUNT(*) AS n FROM logs")
        assert response.status == 200
        assert response.json()["records"] == [{"n": 1}]
        smuggled = client.get(f"/projects/alpha/sql?q={comment}WITH t AS (SELECT 1) DELETE FROM logs")
        assert smuggled.status == 400
        assert "SELECT/WITH" in smuggled.json()["error"]

    def test_a_refused_write_is_refused_again(self, client, service):
        _append(client, "alpha", [0.5])
        smuggled = "/projects/alpha/sql?q=WITH t AS (SELECT 1) DELETE FROM logs"
        for _ in range(2):
            assert client.get(smuggled).status == 400
        with service.pool.checkout("alpha") as shard:
            assert shard.session.query.stats.sql_hits == 0

    def test_a_repeat_read_is_the_kept_answer_until_an_append(self, client, service):
        _append(client, "alpha", [0.5])
        url = "/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs"
        first = client.get(url).body
        assert client.get(url).body is first
        _append(client, "alpha", [0.4])
        assert client.get(url).json()["records"] == [{"n": 2}]
        with service.pool.checkout("alpha") as shard:
            stats = shard.session.query.stats
            assert (stats.sql_hits, stats.sql_runs) == (1, 2)

    def test_malformed_sql_is_a_400_not_a_500(self, client):
        _append(client, "alpha", [0.5])
        response = client.get("/projects/alpha/sql?q=SELECT * FROM no_such_table")
        assert response.status == 400
        assert "SQL error" in response.json()["error"]

    def test_sql_requires_a_query(self, client):
        _append(client, "alpha", [0.5])
        assert client.get("/projects/alpha/sql").status == 400

    def test_reads_of_unknown_projects_are_404_and_create_nothing(self, client, service):
        for url in (
            "/projects/ghost/sql?q=SELECT 1",
            "/projects/ghost/dataframe?names=loss",
            "/projects/ghost/stats",
        ):
            assert client.get(url).status == 404
        assert not (service.root / "ghost").exists()
        assert "ghost" not in service.pool

    def test_reads_work_once_the_project_exists(self, client):
        _append(client, "alpha", [0.5])
        assert client.get("/projects/alpha/stats").status == 200


def _two_epochs(client, project: str, tstamp: str, losses) -> None:
    """One run of ``len(losses)`` epochs, ``loss`` logged in each."""
    client.post(
        f"/projects/{project}/logs",
        json_body={
            "filename": "train.py",
            "loops": [
                {"tstamp": tstamp, "loop_name": "epoch", "loop_iteration": i, "ctx_id": i + 1,
                 "iteration_value": str(i)}
                for i in range(len(losses))
            ],
            "records": [
                {"tstamp": tstamp, "name": "loss", "value": v, "ctx_id": i + 1}
                for i, v in enumerate(losses)
            ],
        },
    )


def _literal(frame) -> bytes:
    """The body as the routes spelled it before ``frame_body``."""
    records = [frame.row(i) for i in range(len(frame))]
    payload = {"columns": frame.columns, "records": records, "rows": len(frame)}
    return json.dumps(payload).encode("utf-8")


class TestResponseBytes:
    """``dataframe`` / ``sql`` bodies: one builder, byte-identical to the
    hand-written literals it replaced, kept with the view between writes."""

    URL = "/projects/alpha/dataframe?names=loss"

    def _frame(self, service, *names, latest=False):
        with service.pool.checkout("alpha") as shard:
            return shard.session.dataframe(*names, latest=latest)

    def test_primary_and_latest_bodies_are_the_old_literal(self, client, service):
        _two_epochs(client, "alpha", "2024-01-01T00:00:00", [0.9, 0.7])
        _two_epochs(client, "alpha", "2024-01-02T00:00:00", [0.5, 0.25, 0.125])
        body = client.get(self.URL).body
        assert isinstance(body, bytes)
        assert body == _literal(self._frame(service, "loss"))
        assert body.endswith(b'"rows": 5}')
        latest = client.get(self.URL + "&latest=1").body
        assert latest == _literal(self._frame(service, "loss", latest=True))
        assert latest.endswith(b'"rows": 3}')

    def test_sql_body_is_the_old_literal(self, client, service):
        _two_epochs(client, "alpha", "2024-01-01T00:00:00", [0.9, 0.7])
        query = "SELECT value_name, COUNT(*) AS n FROM logs GROUP BY value_name"
        with service.pool.checkout("alpha") as shard:
            shard.flush()
            expected = _literal(shard.session.sql(query))
        assert client.get(f"/projects/alpha/sql?q={query}").body == expected
        over_pivot = "SELECT epoch, loss FROM pivot ORDER BY epoch"
        with service.pool.checkout("alpha") as shard:
            expected = _literal(shard.session.sql(over_pivot, names=["loss"]))
        assert client.get(f"/projects/alpha/sql?q={over_pivot}&names=loss").body == expected

    def test_column_order_follows_the_request(self, client):
        client.post(
            "/projects/alpha/logs",
            json_body={"records": [{"name": "a", "value": 1}, {"name": "b", "value": 2}]},
        )
        ab = client.get("/projects/alpha/dataframe?names=a,b")
        ba = client.get("/projects/alpha/dataframe?names=b,a")
        assert ab.json()["columns"][-2:] == ["a", "b"]
        assert ba.json()["columns"][-2:] == ["b", "a"]
        assert list(ba.json()["records"][0])[-2:] == ["b", "a"]
        # Both orders stay cached beside the one view they share.
        assert client.get("/projects/alpha/dataframe?names=a,b").body is ab.body
        assert client.get("/projects/alpha/dataframe?names=b,a").body is ba.body

    def test_an_unchanged_view_is_served_as_the_same_bytes_object(self, client, service):
        _append(client, "alpha", [0.5])
        first = client.get(self.URL)
        second = client.get(self.URL)
        assert second.body is first.body
        with service.pool.checkout("alpha") as shard:
            stats = shard.session.query.stats
            assert (stats.lookups, stats.cold_builds, stats.fast_hits) == (2, 1, 1)
            assert stats.body_hits == 1

    def test_an_append_is_read_back_and_replaces_the_body(self, client, service):
        _append(client, "alpha", [0.5])
        before = client.get(self.URL)
        _two_epochs(client, "alpha", "2024-01-02T00:00:00", [0.25])  # staged, not flushed
        after = client.get(self.URL)
        assert before.json()["rows"] == 1 and after.json()["rows"] == 2
        assert after.json()["records"][-1]["loss"] == 0.25
        assert client.get(self.URL).body is after.body
        with service.pool.checkout("alpha") as shard:
            stats = shard.session.query.stats
            assert stats.incremental_refreshes == 1 and stats.body_hits == 1
            assert shard.ingest["explicit_flushes"] == 2

    def test_a_latest_body_is_kept_beside_the_view_until_an_append(self, client, service):
        _two_epochs(client, "alpha", "2024-01-01T00:00:00", [0.9, 0.7])
        _two_epochs(client, "alpha", "2024-01-02T00:00:00", [0.5, 0.25, 0.125])
        url = self.URL + "&latest=1"
        first = client.get(url)
        assert client.get(url).body is first.body
        assert first.body == frame_body(self._frame(service, "loss", latest=True))
        with service.pool.checkout("alpha") as shard:
            stats = shard.session.query.stats
            assert stats.body_hits == 1 and stats.lookups == 3
        _two_epochs(client, "alpha", "2024-01-03T00:00:00", [0.0625])
        after = client.get(url)
        assert after.body is not first.body and after.json()["rows"] == 1
        with service.pool.checkout("alpha") as shard:
            rebuilt = build_dataframe(shard.session.db, shard.session.projid, ["loss"])
        assert after.body == frame_body(latest(rebuilt))

    def test_non_finite_values_are_null_not_bare_nan(self, client):
        response = client.post(
            "/projects/alpha/logs",
            body=b'{"records": [{"tstamp": "r1", "name": "loss", "value": NaN},'
                 b' {"tstamp": "r2", "name": "loss", "value": 0.5},'
                 b' {"tstamp": "r3", "name": "loss", "value": -Infinity}]}',
        )
        assert response.status == 202

        def strict(body):
            def refuse(token):
                raise AssertionError(f"{token} is not JSON")
            return json.loads(body, parse_constant=refuse)

        frame = strict(client.get(self.URL).body)
        assert [(r["tstamp"], r["loss"]) for r in frame["records"]] == [
            ("r1", None), ("r2", 0.5), ("r3", None)
        ]
        rows = strict(client.get("/projects/alpha/sql?q=SELECT loss FROM pivot&names=loss").body)
        assert [r["loss"] for r in rows["records"]] == [None, 0.5, None]
        # The fallback is cached like any other body.
        assert client.get(self.URL).body is client.get(self.URL).body

    def test_a_reader_beside_a_writer_sees_rows_only_grow(self, client):
        _two_epochs(client, "alpha", "2024-01-01T00:00:00", [0.9])
        errors, seen = [], []
        done = threading.Event()

        def write():
            try:
                for i in range(40):
                    _two_epochs(client, "alpha", f"2024-02-{i + 1:02d}T00:00:00", [0.5, 0.25])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    seen.append(client.get(self.URL).json()["rows"])
                seen.append(client.get(self.URL).json()["rows"])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write), threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert seen == sorted(seen)
        assert seen[-1] == 1 + 40 * 2

    def test_evicting_a_shard_releases_its_views_and_bodies(self, tmp_path):
        import gc
        import weakref

        service = FlorService(tmp_path / "one", pool_capacity=1, flush_interval=None)
        try:
            client = TestClient(service.app())
            _append(client, "alpha", [0.5])
            assert client.get(self.URL).ok
            with service.pool.checkout("alpha") as shard:
                cache = weakref.ref(shard.session.query.cache)
                assert any(entry.bodies for entry in cache()._entries.values())
            del shard
            _append(client, "beta", [0.5])  # pool of one: alpha is closed...
            assert service.pool.open_shards() == ["beta"]
            gc.collect()
            assert cache() is not None  # ...and its views wait for a reopen
            _append(client, "gamma", [0.5])  # beta's views displace alpha's
            assert service.pool.open_shards() == ["gamma"]
            gc.collect()
            assert cache() is None
        finally:
            service.close()


class TestReadCheckouts:
    """A read checks its shard out once; ``pool.hits`` counts it once."""

    READS = (
        "/projects/alpha/dataframe?names=loss",
        "/projects/alpha/dataframe?names=loss&latest=1",
        "/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs",
        "/projects/alpha/sql?q=SELECT loss FROM pivot&names=loss",
    )

    def test_n_reads_move_pool_hits_by_n(self, client, service):
        _append(client, "alpha", [0.5, 0.25])
        pool = service.pool.stats
        for url in self.READS * 2:
            # ``primary=1`` is an unknown argument: accepted and ignored.
            bodies = []
            for suffix in ("", "&primary=1"):
                hits = pool.hits
                response = client.get(url + suffix)
                assert response.ok
                assert pool.hits == hits + 1
                bodies.append(response.body)
            assert bodies[0] == bodies[1]
        assert pool.misses == 1
        with service.pool.checkout("alpha") as shard:
            # Every one of them still took the flush barrier and one lookup.
            assert shard.ingest["explicit_flushes"] == 1
            assert shard.session.query.stats.lookups == 2 * 2 * 3  # plain sql reads no view


    def test_a_closed_unchanged_tenant_is_read_without_a_checkout(self, tmp_path):
        """A closed tenant whose file is as its close left it answers the
        view, its ``latest=1`` rows and a plain statement from the kept
        bytes (``pool.rest_hits``); a ``names`` statement builds a pivot
        table on a connection, so it reopens the tenant."""
        import os
        import time

        service = FlorService(tmp_path / "rest", pool_capacity=1, flush_interval=None)
        client = TestClient(service.app())
        path = tmp_path / "rest" / "alpha" / ".flor" / "flor.db"
        try:
            _append(client, "alpha", [0.5, 0.25])
            # The names statement's temp table moves write_version: read it
            # first, so the others are checked at the version the close keeps.
            reads = self.READS[3:] + self.READS[:3]
            served = [client.get(url).body for url in reads]
            for _ in range(2):  # the first close folds the WAL in: racy, not at rest
                assert service.pool.evict("alpha")
                then = time.time() - 60
                os.utime(path, (then, then))
                assert [client.get(url).body for url in reads] == served
            served = served[1:] + served[:1]
            assert service.pool.evict("alpha")
            misses = service.pool.stats.misses
            at_rest = [client.get(url).body for url in self.READS]
            assert at_rest == served
            with service.pool.checkout("alpha") as shard:
                frame = build_dataframe(shard.session.db, "alpha", ["loss"])
            assert at_rest[:2] == [frame_body(frame), frame_body(latest(frame))]
            assert service.pool.stats.misses == misses + 1  # the names statement
            assert client.get("/service/stats").json()["pool"]["rest_hits"] == 3
            assert client.get("/service/telemetry").json()["counters"]["pool.rest_hits"] == 3
        finally:
            service.close()


class TestCommit:
    def test_commit_flushes_the_queue_and_returns_a_vid(self, client, service):
        _append(client, "alpha", [0.5])  # pending, below flush_size
        response = client.post("/projects/alpha/commit", json_body={"message": "run 1"})
        assert response.status == 200
        assert response.json()["vid"]
        with service.pool.checkout("alpha") as shard:
            assert shard.pending == 0
            assert shard.session.db.count("logs") == 1
            assert shard.session.db.count("ts2vid") == 1

    def test_commit_starts_a_new_epoch(self, client, service):
        _append(client, "alpha", [0.5])
        first = client.post("/projects/alpha/commit", json_body={}).json()
        _append(client, "alpha", [0.4])
        second = client.post("/projects/alpha/commit", json_body={}).json()
        # Unchanged manifests reuse the head vid (several epochs can map to
        # one version id), but each commit opens a fresh timestamp epoch.
        assert first["tstamp"] != second["tstamp"]
        with service.pool.checkout("alpha") as shard:
            assert shard.session.db.count("ts2vid") == 2


class TestTenancy:
    def test_projects_are_physically_isolated(self, client, service):
        _append(client, "alpha", [0.5])
        _append(client, "beta", [0.9, 0.8])
        alpha = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        beta = client.get("/projects/beta/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        assert alpha["records"] == [{"n": 1}]
        assert beta["records"] == [{"n": 2}]

    @pytest.mark.parametrize("name", ["..", ".hidden", "a b", "-dash", "sp%40m"])
    def test_invalid_project_names_are_rejected(self, client, name):
        response = client.post(f"/projects/{name}/logs", json_body={"records": [{"name": "x"}]})
        assert response.status == 400

    def test_unknown_route_is_404(self, client):
        assert client.get("/projects/alpha/nope").status == 404

    def test_lru_eviction_is_transparent_to_clients(self, tmp_path):
        service = FlorService(tmp_path / "small", pool_capacity=1, flush_size=2, flush_interval=None)
        try:
            client = TestClient(service.app())
            _append(client, "alpha", [0.5])  # pending when beta evicts alpha
            _append(client, "beta", [0.9])
            count = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
            assert count["records"] == [{"n": 1}]
            assert service.pool.stats.evictions >= 1
            assert service.pool.stats.reopens >= 1
        finally:
            service.close()


class TestIntrospection:
    def test_healthz(self, client):
        response = client.get("/healthz")
        assert response.ok and response.json()["status"] == "ok"

    def test_service_stats_reports_pool_state(self, client):
        _append(client, "alpha", [0.5])
        body = client.get("/service/stats").json()
        assert body["open_shards"] == ["alpha"]
        assert body["capacity"] == 4
        assert body["pool"]["misses"] == 1

    def test_drain_evictions_agree_between_stats_and_telemetry(self, client):
        """``/fleet/drain`` seals through ``pool.evict``; the stats route and
        the telemetry feed read the same counter, so they cannot disagree."""
        _append(client, "alpha", [0.5])
        _append(client, "beta", [0.6])
        assert client.post("/fleet/drain").json()["sealed_shards"] == ["alpha", "beta"]
        stats = client.get("/service/stats").json()
        telemetry = client.get("/service/telemetry").json()
        assert stats["pool"]["evictions"] == 2
        assert telemetry["counters"]["pool.evictions"] == 2

    def test_project_stats_reports_counts_and_queue(self, client):
        _append(client, "alpha", [0.5])
        body = client.get("/projects/alpha/stats").json()
        assert body["project"] == "alpha"
        assert body["pending"] == 1
        assert body["tables"]["logs"] == 0  # still queued
        assert body["ingest"]["appended"] == 1

    def test_project_stats_exposes_the_durability_fields(self, client, service):
        """The seal-protocol surface: a monotone drop total plus the live
        shard's incarnation and flusher counters (see docs/testing.md)."""
        _append(client, "alpha", [0.5])
        body = client.get("/projects/alpha/stats").json()
        assert body["dropped_rows_total"] == 0
        assert body["incarnation"] >= 1
        assert body["flusher"]["dropped_rows"] == 0
        # The total must survive an eviction cycle, not reset with the
        # shard's own counters: simulate a shed batch, evict, reopen.
        service.pool.get("alpha").session.flusher.stats["dropped_rows"].inc(2)
        assert service.pool.evict("alpha")
        _append(client, "alpha", [0.6])
        after = client.get("/projects/alpha/stats").json()
        assert after["dropped_rows_total"] == 2
        assert after["flusher"]["dropped_rows"] == 0  # fresh incarnation
        assert after["incarnation"] > body["incarnation"]


class TestConcurrency:
    def test_eight_threads_append_without_loss(self, tmp_path):
        service = FlorService(tmp_path / "conc", pool_capacity=4, flush_size=16, flush_interval=None)
        try:
            client = TestClient(service.app())
            errors = []

            def worker(worker_id: int) -> None:
                project = f"tenant_{worker_id % 2}"
                for i in range(25):
                    response = _append(client, project, [worker_id + i * 0.01])
                    if not response.ok:
                        errors.append(response.status)

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            total = 0
            for project in ("tenant_0", "tenant_1"):
                body = client.get(
                    f"/projects/{project}/sql?q=SELECT COUNT(*) AS n FROM logs"
                ).json()
                total += body["records"][0]["n"]
            assert total == 8 * 25
        finally:
            service.close()
