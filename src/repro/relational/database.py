"""SQLite connection management for FlorDB.

A :class:`Database` owns exactly one SQLite connection, configured for
durable-but-fast appends (WAL journal, NORMAL synchronous) and exposing a
transaction context manager.  All SQL in this package is parameterized; no
user-provided string is ever interpolated into a statement.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..errors import DatabaseError
from .schema import create_schema


class Database:
    """A thin wrapper around an SQLite connection holding the FlorDB schema.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral database
        (useful in tests and replay sandboxes).
    """

    def __init__(self, path: Path | str = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as exc:  # pragma: no cover - environment dependent
            raise DatabaseError(f"cannot open database at {self.path}: {exc}") from exc
        self._lock = threading.RLock()
        try:
            self._configure()
            create_schema(self._connection)
        except BaseException:
            self._connection.close()
            raise

    def _configure(self) -> None:
        cursor = self._connection.cursor()
        if self.path != ":memory:":
            cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute("PRAGMA synchronous=NORMAL")
        cursor.execute("PRAGMA foreign_keys=ON")
        cursor.close()

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    @property
    def write_version(self) -> int:
        """Monotonic count of rows written through this handle.

        Backed by ``sqlite3``'s ``total_changes``: every INSERT/UPDATE/DELETE
        committed through this connection advances it, reads never do.  The
        query engine's pivot-view cache uses it as a zero-cost staleness
        probe — any writer sharing this handle (sessions, the ingestion
        queue, replay backfills) is detected without a single SQL statement.
        """
        with self._lock:
            return self._connection.total_changes

    # ----------------------------------------------------------- execution
    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Run a block atomically; rolls back on any exception."""
        with self._lock:
            try:
                yield self._connection
                self._connection.commit()
            except Exception:
                self._connection.rollback()
                raise

    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        with self._lock:
            try:
                cursor = self._connection.execute(sql, tuple(params))
                self._connection.commit()
                return cursor
            except sqlite3.Error as exc:
                raise DatabaseError(f"SQL error: {exc}") from exc

    def executemany(self, sql: str, rows: Sequence[Sequence[Any]]) -> None:
        # Rows pass straight through to sqlite3 (which accepts any sequence);
        # re-materializing them as tuples here would copy every row a second
        # time.  Callers produce tuples exactly once via ``Record.as_row``.
        if not rows:
            return
        with self._lock:
            try:
                self._connection.executemany(sql, rows)
                self._connection.commit()
            except sqlite3.Error as exc:
                raise DatabaseError(f"SQL error: {exc}") from exc

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        with self._lock:
            try:
                return self._connection.execute(sql, tuple(params)).fetchall()
            except sqlite3.Error as exc:
                raise DatabaseError(f"SQL error: {exc}") from exc

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> tuple | None:
        rows = self.query(sql, params)
        return rows[0] if rows else None

    # --------------------------------------------------------------- counts
    def count(self, table: str) -> int:
        from .schema import TABLES

        if table not in TABLES:
            raise DatabaseError(f"unknown table: {table!r}")
        row = self.query_one(f"SELECT COUNT(*) FROM {table}")
        return int(row[0]) if row else 0
