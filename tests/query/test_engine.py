"""Tests for the QueryEngine façade and its wiring into Session and service."""

from __future__ import annotations

from repro.core.dataframe_view import build_dataframe
from repro.query import PivotViewCache, QueryEngine
from repro.service import FlorService
from repro.webapp.framework import TestClient


def record_runs(session, runs: int = 2, epochs: int = 3):
    for _run in range(runs):
        for epoch in session.loop("epoch", range(epochs)):
            session.log("loss", 1.0 / (1 + epoch))
            session.log("acc", 0.1 * epoch)
        session.commit("run")


class TestEngine:
    def test_dataframe_routes_through_cache(self, session):
        record_runs(session)
        engine = session.query
        first = engine.dataframe("loss", "acc")
        second = engine.dataframe("loss", "acc")
        assert second.equals(first)
        assert engine.stats.cold_builds == 1
        assert engine.stats.hits >= 1

    def test_latest_keyword_matches_post_filter(self, session):
        record_runs(session)
        from repro.relational.queries import latest

        assert session.dataframe("loss", latest=True).equals(
            latest(session.dataframe("loss"))
        )

    def test_tstamp_range_bypasses_cache_and_bounds_scan(self, session):
        record_runs(session, runs=2)
        full = session.dataframe("loss")
        tstamps = sorted(set(full["tstamp"].to_list()))
        assert len(tstamps) == 2
        sliced = session.dataframe("loss", tstamp_range=(tstamps[1], None))
        assert set(sliced["tstamp"].to_list()) == {tstamps[1]}
        assert len(sliced) == 3

    def test_session_flush_invalidates_view(self, session):
        record_runs(session, runs=1)
        before = session.dataframe("loss")
        for epoch in session.loop("epoch", range(3)):
            session.log("loss", 2.0 + epoch)
        after = session.dataframe("loss")  # dataframe() flushes first
        assert len(after) == len(before) + 3
        assert after.equals(build_dataframe(session.db, session.projid, ["loss"]))

    def test_sql_over_names_uses_cached_pivot(self, session):
        record_runs(session)
        engine = session.query
        engine.dataframe("loss", "acc")
        frame = session.sql(
            "SELECT tstamp, MAX(acc) AS best FROM pivot GROUP BY tstamp ORDER BY tstamp",
            names=["loss", "acc"],
        )
        assert len(frame) == 2
        assert engine.stats.cold_builds == 1  # the SQL read reused the view

    def test_shared_cache_across_engines(self, session):
        record_runs(session)
        shared = PivotViewCache()
        one = QueryEngine(session.db, session.projid, cache=shared)
        two = QueryEngine(session.db, session.projid, cache=shared)
        one.dataframe("loss")
        two.dataframe("loss")
        assert shared.stats.cold_builds == 1
        assert shared.stats.hits == 1

    def test_the_query_cache_knob_is_rejected(self, tmp_path):
        # The pool hands a retained cache over through ``session.query.cache``.
        import pytest

        from repro.config import ProjectConfig
        from repro.core.session import Session

        with pytest.raises(TypeError):
            Session(ProjectConfig(tmp_path / "p", "p"), query_cache=PivotViewCache())

    def test_rejected_sql_fails_before_pivot_builds(self, session):
        """Regression: the read-only guard must fire before the pivot work."""
        import pytest

        from repro.errors import DatabaseError

        record_runs(session)
        engine = session.query
        with pytest.raises(DatabaseError):
            engine.sql("DELETE FROM pivot", names=["loss"])
        assert engine.stats.cold_builds == 0


class TestServiceWiring:
    def test_dataframe_warm_across_requests_and_invalidated_by_ingest(self, tmp_path):
        """End-to-end: ingest -> read -> ingest -> read through HTTP routes."""
        service = FlorService(tmp_path / "svc", flush_size=4, flush_interval=None)
        client = TestClient(service.app())
        try:
            payload = {
                "filename": "load.py",
                "records": [
                    {"name": "metric", "value": i * 0.5, "ctx_id": 0} for i in range(4)
                ],
            }
            assert client.post("/projects/demo/logs", json_body=payload).status == 202
            first = client.get("/projects/demo/dataframe?names=metric").json()
            assert first["rows"] == 1  # ctx 0 records pivot to one top-level row
            second = client.get("/projects/demo/dataframe?names=metric").json()
            assert second == first

            with service.pool.checkout("demo") as shard:
                stats = shard.session.query.stats
                assert stats.cold_builds == 1
                assert stats.hits >= 1

            # A later run (fresh tstamp) must appear in the next read.
            more = {
                "filename": "load.py",
                "records": [
                    {"name": "metric", "value": 9.0, "ctx_id": 0, "tstamp": "2099-01-01T00:00:00"}
                ],
            }
            assert client.post("/projects/demo/logs", json_body=more).status == 202
            third = client.get("/projects/demo/dataframe?names=metric").json()
            assert third["rows"] == first["rows"] + 1

            with service.pool.checkout("demo") as shard:
                stats = shard.session.query.stats
                assert stats.incremental_refreshes >= 1
                assert stats.cold_builds == 1
            project_stats = client.get("/projects/demo/stats").json()
            assert project_stats["query_cache"]["cold_builds"] == 1
        finally:
            service.close()
