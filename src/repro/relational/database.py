"""SQLite connection management for FlorDB.

A :class:`Database` owns exactly one SQLite connection, configured for
durable-but-fast appends (WAL journal, NORMAL synchronous) and exposing a
transaction context manager — plus, once its writer thread takes over WAL
checkpoints (:meth:`Database.checkpoint`), a second connection that runs
them.  All SQL in this package is parameterized; no user-provided string is
ever interpolated into a statement.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..errors import DatabaseError
from ..versioning.repository import RACY_WINDOW_NS
from .schema import create_schema

#: WAL pages at which :meth:`Database.checkpoint` runs one (SQLite's default).
CHECKPOINT_PAGES = 1_000


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
        self._checkpointer: sqlite3.Connection | None = None  # opened when first due
        self._checkpoints_taken = False
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
        if self._checkpointer is not None:  # first: the last one out removes the WAL
            self._checkpointer.close()
        with self._lock:
            self._connection.close()

    def at_rest(self) -> tuple[int, ...] | None:
        """``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)`` of the
        database file at rest, else None (always for ``:memory:``, and while
        this handle is open).

        At rest means no ``-wal`` beside the file (a connection that is
        open, or one that died, may hold commits the file does not show
        yet) and a modification older than the racy window (a rewrite inside
        one timestamp tick could leave the same stat).  Two equal identities
        of a file at rest mean nothing committed to it in between: a write
        reaches the file only through a WAL that is folded in, and removed,
        by the last connection's close — which moves the mtime — and a
        restored copy moves the ctime.  Callable after :meth:`close`.
        """
        if self.path == ":memory:" or os.path.exists(f"{self.path}-wal"):
            return None
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        if st.st_mtime_ns + RACY_WINDOW_NS > time.time_ns():
            return None
        return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    @property
    def write_version(self) -> int:
        """Monotonic count of the commits this handle can see.

        ``sqlite3``'s ``total_changes`` counts every INSERT/UPDATE/DELETE
        committed through this connection; ``PRAGMA data_version`` moves
        when another connection — a second handle, another process —
        commits to the file.  Reads advance neither.  The query cache serves
        a view or an SQL answer while this value (and its own generation
        counter) holds: one pragma, no table read.
        """
        with self._lock:
            (others,) = self._connection.execute("PRAGMA data_version").fetchone()
            return self._connection.total_changes + others

    def checkpoint_due(self) -> bool:
        """Whether the WAL holds :data:`CHECKPOINT_PAGES` pages (one read, no lock)."""
        try:
            with open(f"{self.path}-shm", "rb", buffering=0) as shm:
                # mxFrame of the wal-index header (SQLite's WAL format): pages, 0 after a reset.
                return int.from_bytes(shm.read(20)[16:], sys.byteorder) >= CHECKPOINT_PAGES
        except FileNotFoundError:
            return False

    def checkpoint(self) -> bool:
        """Run a ``PASSIVE`` WAL checkpoint on a second connection, which holds
        none of this handle's locks, if :meth:`checkpoint_due`; returns whether
        one ran.  The first call takes checkpoints over from SQLite's commits."""
        if self.path == ":memory:":
            return False
        if not self._checkpoints_taken:
            self.execute("PRAGMA wal_autocheckpoint=0")
            self._checkpoints_taken = True
        if not self.checkpoint_due():
            return False
        if self._checkpointer is None:
            self._checkpointer = sqlite3.connect(self.path, check_same_thread=False)
            self._checkpointer.execute("PRAGMA synchronous=NORMAL")
        self._checkpointer.execute("PRAGMA wal_checkpoint(PASSIVE)").fetchall()
        return True

    # ----------------------------------------------------------- execution
    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Run a block atomically; rolls back on any exception, an interrupt too."""
        with self._lock:
            try:
                yield self._connection
                self._connection.commit()
            except BaseException:
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
