"""Schema tests: the on-disk layout matches Figure 1 of the paper."""

from __future__ import annotations

import hashlib
import re
import sqlite3
from urllib.parse import quote

import pytest

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.schema import (
    _DDL,
    DDL_STAMP,
    SCHEMA_VERSION,
    TABLES,
    create_schema,
    table_columns,
)


class TestSchemaCreation:
    def test_all_tables_exist(self, db):
        for table in TABLES:
            expected = 1 if table == "meta" else 0  # meta holds the schema version
            assert db.count(table) == expected

    def test_schema_is_idempotent(self, db):
        # Creating the schema twice on the same connection must not fail.
        with db.transaction() as conn:
            create_schema(conn)

    def test_schema_version_recorded(self, db):
        row = db.query_one("SELECT value FROM meta WHERE key = 'schema_version'")
        assert row is not None
        assert int(row[0]) == SCHEMA_VERSION

    def test_incompatible_version_rejected(self):
        conn = sqlite3.connect(":memory:")
        create_schema(conn)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        with pytest.raises(SchemaError):
            create_schema(conn)


class TestFigure1Columns:
    """Column names must match the data model figure exactly."""

    def test_logs_columns(self, db):
        with db.transaction() as conn:
            columns = table_columns(conn, "logs")
        for expected in ("projid", "tstamp", "filename", "ctx_id", "value_name", "value", "value_type"):
            assert expected in columns

    def test_loops_columns(self, db):
        with db.transaction() as conn:
            columns = table_columns(conn, "loops")
        for expected in (
            "projid",
            "tstamp",
            "filename",
            "ctx_id",
            "parent_ctx_id",
            "loop_name",
            "loop_iteration",
            "iteration_value",
        ):
            assert expected in columns

    def test_ts2vid_columns(self, db):
        with db.transaction() as conn:
            columns = table_columns(conn, "ts2vid")
        for expected in ("projid", "ts_start", "ts_end", "vid", "root_target"):
            assert expected in columns

    def test_obj_store_columns(self, db):
        with db.transaction() as conn:
            columns = table_columns(conn, "obj_store")
        for expected in ("projid", "tstamp", "filename", "ctx_id", "value_name", "contents"):
            assert expected in columns

    def test_build_deps_columns(self, db):
        with db.transaction() as conn:
            columns = table_columns(conn, "build_deps")
        for expected in ("vid", "target", "deps", "cmds", "cached"):
            assert expected in columns

    def test_unknown_table_rejected(self, db):
        with db.transaction() as conn:
            with pytest.raises(SchemaError):
                table_columns(conn, "not_a_table")


# ---------------------------------------------------------------------------
# Index inventory and the DDL stamp
# ---------------------------------------------------------------------------

#: Every named index a fresh file holds.  An index no statement seeks costs
#: every append; ``TestStatementCost`` pins a reader of each ``logs`` /
#: ``loops`` one.
EXPECTED_INDEXES = {
    "idx_logs_pushdown",
    "idx_logs_tstamp",
    "idx_loops_ancestry",
    "idx_ts2vid_vid",
    "idx_jobs_claim",
    "idx_jobs_project",
    "idx_qos_position",
    "idx_job_events_job",
}

#: The indexes older releases created and no statement read.
LEGACY_INDEXES = (
    "CREATE INDEX idx_logs_name ON logs (projid, value_name)",
    "CREATE INDEX idx_logs_ctx ON logs (projid, tstamp, filename, ctx_id)",
    "CREATE INDEX idx_loops_parent ON loops (projid, tstamp, filename, parent_ctx_id)",
)
LEGACY_NAMES = ("idx_logs_name", "idx_logs_ctx", "idx_loops_parent")

#: ``CREATE`` / ``DROP`` statements in the schema script.
SCRIPT_STATEMENTS = len(re.findall(r"^(?:CREATE|DROP)\b", _DDL, re.MULTILINE))


def _ddl(statements: list[str]) -> list[str]:
    """The ``CREATE`` / ``DROP`` statements among traced ones, comments stripped."""
    bare = (re.sub(r"--[^\n]*", "", statement).strip() for statement in statements)
    return [statement for statement in bare if re.match(r"(CREATE|DROP)\b", statement)]


def _named_indexes(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        return {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
                " AND name NOT LIKE 'sqlite_autoindex_%'"
            )
        }
    finally:
        conn.close()


def _user_version(path) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


def _written_by_an_older_release(path) -> None:
    """Give a file the layout releases before the stamp left: the three
    unread indexes present and ``user_version`` 0."""
    conn = sqlite3.connect(path)
    for statement in LEGACY_INDEXES:
        conn.execute(statement)
    conn.execute("PRAGMA user_version = 0")
    conn.commit()
    conn.close()


@pytest.fixture()
def traced(monkeypatch):
    """``(connection, statements)`` for every connection opened in the test."""
    opened: list[tuple[sqlite3.Connection, list[str]]] = []
    connect = sqlite3.connect

    def tracing_connect(*args, **kwargs):
        connection = connect(*args, **kwargs)
        statements: list[str] = []
        connection.set_trace_callback(statements.append)
        opened.append((connection, statements))
        return connection

    monkeypatch.setattr(sqlite3, "connect", tracing_connect)
    return opened


class TestIndexInventory:
    def test_a_fresh_file_holds_exactly_the_expected_indexes(self, tmp_path):
        path = tmp_path / "flor.db"
        Database(path).close()
        assert _named_indexes(path) == EXPECTED_INDEXES
        assert _user_version(path) == DDL_STAMP


class TestDdlStamp:
    def test_a_file_an_older_release_wrote_is_migrated_on_open(self, tmp_path, traced):
        path = tmp_path / "flor.db"
        Database(path).close()
        _written_by_an_older_release(path)
        assert _named_indexes(path) == EXPECTED_INDEXES | set(LEGACY_NAMES)
        Database(path).close()
        migrating = traced[-1][1]
        assert _named_indexes(path) == EXPECTED_INDEXES
        assert _user_version(path) == DDL_STAMP
        assert [s for s in _ddl(migrating) if s.startswith("DROP")] == [
            f"DROP INDEX IF EXISTS {name};" for name in LEGACY_NAMES
        ]

    def test_a_stamped_file_runs_no_ddl_on_open(self, tmp_path, traced):
        path = tmp_path / "flor.db"
        Database(path).close()
        with Database(path) as db:
            assert db.count("meta") == 1
        (_, first), (_, second) = traced
        assert len(_ddl(first)) == SCRIPT_STATEMENTS
        assert _ddl(second) == []
        assert "SELECT value FROM meta WHERE key = 'schema_version'" in second

    def test_another_stamp_reruns_the_script_once(self, tmp_path, traced):
        path = tmp_path / "flor.db"
        Database(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 7")
        conn.commit()
        conn.close()
        Database(path).close()
        rerun = traced[-1][1]
        Database(path).close()
        after = traced[-1][1]
        assert len(_ddl(rerun)) == SCRIPT_STATEMENTS
        assert _ddl(after) == []
        assert _user_version(path) == DDL_STAMP

    def test_a_stamped_file_of_another_schema_version_is_rejected(self, tmp_path, traced):
        path = tmp_path / "flor.db"
        with Database(path) as db:
            db.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        assert _user_version(path) == DDL_STAMP
        with pytest.raises(SchemaError, match="999"):
            Database(path)
        connection, statements = traced[-1]
        assert _ddl(statements) == []
        # The rejected open released its handle instead of leaking it.
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")

    def test_a_migrated_tenant_serves_the_same_bodies(self, tmp_path):
        from repro.service import FlorService
        from repro.webapp.framework import TestClient

        root = tmp_path / "host"
        urls = [
            "/projects/alpha/dataframe?names=loss,acc",
            "/projects/alpha/dataframe?names=loss,acc&latest=1",
            "/projects/alpha/sql?q=" + quote("SELECT tstamp, value_name, value FROM logs ORDER BY seq"),
        ]

        def digests() -> list[str]:
            service = FlorService(root, flush_interval=None)
            try:
                client = TestClient(service.app())
                responses = [client.get(url) for url in urls]
            finally:
                service.close()
            assert [response.status for response in responses] == [200, 200, 200]
            assert [response.json()["rows"] for response in responses] == [12, 4, 15]
            bodies = [response.body for response in responses]
            return [
                hashlib.sha256(body if isinstance(body, bytes) else body.encode()).hexdigest()
                for body in bodies
            ]

        service = FlorService(root, flush_interval=None)
        client = TestClient(service.app())
        for run in range(3):
            records = [{"name": "loss", "value": 1.0 / (step + run + 1), "ctx_id": step + 1}
                       for step in range(4)] + [{"name": "acc", "value": run / 4}]
            loops = [{"loop_name": "step", "ctx_id": step + 1, "parent_ctx_id": 0,
                      "loop_iteration": step, "iteration_value": step} for step in range(4)]
            assert client.post("/projects/alpha/logs",
                               json_body={"records": records, "loops": loops}).status == 202
            assert client.post("/projects/alpha/commit", json_body={}).status == 200
        service.close()
        before = digests()
        (path,) = root.rglob("flor.db")
        _written_by_an_older_release(path)
        assert digests() == before
        assert _named_indexes(path) == EXPECTED_INDEXES
        assert _user_version(path) == DDL_STAMP
