"""Tests for the SQL query surface over the context store."""

from __future__ import annotations

import pytest

from repro.errors import DatabaseError
from repro.relational.sql import register_pivot_view, run_sql, sql_over_names


@pytest.fixture()
def recorded(session):
    """Two runs with per-epoch accuracy/recall plus a list-valued log."""
    for run in range(2):
        for epoch in session.loop("epoch", range(3)):
            session.log("acc", 0.6 + run * 0.2 + epoch * 0.01)
            session.log("recall", 0.5 + run * 0.2 + epoch * 0.01)
            session.log("tags", ["a", "b"])
        session.commit(f"run {run}")
    return session


class TestRunSql:
    def test_select_over_physical_tables(self, recorded):
        frame = recorded.sql("SELECT value_name, COUNT(*) AS n FROM logs GROUP BY value_name ORDER BY value_name")
        names = frame["value_name"].to_list()
        assert names == ["acc", "recall", "tags"]
        assert frame["n"].to_list() == [6, 6, 6]

    def test_parameterized_query(self, recorded):
        frame = recorded.sql("SELECT COUNT(*) AS n FROM logs WHERE value_name = ?", params=("acc",))
        assert frame.row(0)["n"] == 6

    def test_with_statement_allowed(self, recorded):
        frame = recorded.sql(
            "WITH counts AS (SELECT value_name, COUNT(*) AS n FROM logs GROUP BY value_name)"
            " SELECT MAX(n) AS biggest FROM counts"
        )
        assert frame.row(0)["biggest"] == 6

    def test_writes_rejected(self, recorded):
        with pytest.raises(DatabaseError):
            recorded.sql("DELETE FROM logs")
        with pytest.raises(DatabaseError):
            run_sql(recorded.db, "UPDATE logs SET value = '0'")

    def test_write_smuggled_past_the_prefix_is_rejected(self, recorded):
        # Starts with WITH, so the prefix check passes — the compile-time
        # authorizer must still deny it and the data must survive.
        before = recorded.db.count("logs")
        with pytest.raises(DatabaseError, match="SELECT/WITH"):
            recorded.sql("WITH t AS (SELECT 1) DELETE FROM logs")
        assert recorded.db.count("logs") == before

    def test_malformed_sql_raises_database_error(self, recorded):
        with pytest.raises(DatabaseError, match="SQL error"):
            recorded.sql("SELECT * FROM no_such_table")
        with pytest.raises(DatabaseError, match="SQL error"):
            recorded.sql("SELECT FROM WHERE")

    def test_read_only_authorizer_is_removed_afterwards(self, recorded):
        with pytest.raises(DatabaseError):
            recorded.sql("WITH t AS (SELECT 1) DELETE FROM logs")
        # Normal write paths (outside run_sql) still work after the denial.
        recorded.db.execute("INSERT INTO meta (key, value) VALUES ('probe', '1')")
        assert recorded.db.query_one("SELECT value FROM meta WHERE key = 'probe'") == ("1",)

    def test_empty_result_preserves_columns(self, recorded):
        frame = recorded.sql("SELECT projid, tstamp FROM logs WHERE value_name = 'missing'")
        assert frame.empty
        assert frame.columns == ["projid", "tstamp"]


class TestPivotSql:
    def test_query_over_pivoted_view(self, recorded):
        frame = recorded.sql(
            "SELECT tstamp, MAX(recall) AS best_recall FROM pivot GROUP BY tstamp ORDER BY tstamp",
            names=["acc", "recall"],
        )
        assert len(frame) == 2
        assert frame["best_recall"].to_list() == pytest.approx([0.52, 0.72])

    def test_numeric_comparison_in_sql(self, recorded):
        frame = recorded.sql(
            "SELECT COUNT(*) AS n FROM pivot WHERE acc > 0.7",
            names=["acc"],
        )
        assert frame.row(0)["n"] == 3  # the three epochs of the second run

    def test_best_run_selection_like_infer_py(self, recorded):
        frame = sql_over_names(
            recorded.db,
            recorded.projid,
            ["acc", "recall"],
            "SELECT tstamp, recall FROM pivot ORDER BY recall DESC LIMIT 1",
        )
        assert frame.row(0)["recall"] == pytest.approx(0.72)

    def test_non_scalar_values_are_stringified(self, recorded):
        frame = recorded.sql("SELECT tags FROM pivot LIMIT 1", names=["tags"])
        assert "a" in frame.row(0)["tags"]

    def test_register_pivot_view_returns_columns(self, recorded):
        columns = register_pivot_view(recorded.db, recorded.projid, ["acc"])
        assert {"projid", "tstamp", "filename", "acc"} <= set(columns)

    def test_invalid_identifier_rejected(self, recorded):
        with pytest.raises(DatabaseError):
            recorded.sql("SELECT * FROM pivot", names=["bad-name!"])

    def test_empty_history_yields_empty_view(self, make_session):
        fresh = make_session("sqlfresh", default_filename="x.py")
        frame = fresh.sql("SELECT COUNT(*) AS n FROM pivot", names=["acc"])
        assert frame.row(0)["n"] == 0


class TestFacade:
    def test_facade_sql_routes_to_active_session(self, recorded):
        from repro import active_session, flor

        with active_session(recorded):
            frame = flor.sql("SELECT COUNT(*) AS n FROM logs")
        assert frame.row(0)["n"] == 18
