"""Repositories: typed insert/query access for each physical table.

Each repository wraps a :class:`~repro.storage.protocols.RelationalStore` and
translates between dataclass records and SQL rows.  They are intentionally
narrow — higher-level query shapes (pivots, latest-version selection) live in
:mod:`repro.relational.queries`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..storage.protocols import RelationalStore
from .records import (
    BuildDepRecord,
    LogRecord,
    LoopRecord,
    ObjectRecord,
    Ts2VidRecord,
)

#: Insert statements shared with :mod:`repro.runtime.flusher`, which replays
#: them through a single transaction when coalescing batched submissions;
#: bind parameters come from ``LogRecord.as_row`` / ``LoopRecord.as_row``
#: and, for a checkpoint, its ``obj_store`` key columns plus the pickle.
INSERT_LOG_SQL = (
    "INSERT INTO logs (projid, tstamp, filename, ctx_id, value_name, value, value_type)"
    " VALUES (?, ?, ?, ?, ?, ?, ?)"
)
INSERT_LOOP_SQL = (
    "INSERT OR REPLACE INTO loops"
    " (projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name, loop_iteration, iteration_value)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
)
INSERT_OBJECT_SQL = (
    "INSERT OR REPLACE INTO obj_store (projid, tstamp, filename, ctx_id, value_name, contents)"
    " VALUES (?, ?, ?, ?, ?, ?)"
)

#: Keyed appends (``POST /projects/<n>/logs`` with an ``Idempotency-Key``).
#: The flusher inserts a batch's key in the transaction of its rows and
#: skips the rows when the insert is ignored (the key landed before, or
#: earlier in the same transaction); that transaction then prunes the table
#: to the newest :data:`KEPT_APPEND_KEYS` keys.  A retry past that window is
#: applied again.
KEPT_APPEND_KEYS = 1_024
INSERT_APPEND_KEY_SQL = "INSERT OR IGNORE INTO append_keys (key) VALUES (?)"
PRUNE_APPEND_KEYS_SQL = (
    "DELETE FROM append_keys WHERE rowid <= "
    f"(SELECT MAX(rowid) FROM append_keys) - {KEPT_APPEND_KEYS}"
)


def append_key_landed(db: RelationalStore, key: str) -> bool:
    """Whether a keyed append under ``key`` committed (and is still kept)."""
    return db.query_one("SELECT 1 FROM append_keys WHERE key = ?", (key,)) is not None


class LogRepository:
    """Append-only access to the ``logs`` table."""

    def __init__(self, db: RelationalStore):
        self._db = db

    def add(self, record: LogRecord) -> None:
        self.add_many([record])

    def add_many(self, records: Sequence[LogRecord]) -> None:
        self._db.executemany(INSERT_LOG_SQL, [r.as_row() for r in records])

    def _rows_to_records(self, rows: Iterable[tuple]) -> list[LogRecord]:
        return [
            LogRecord(
                projid=row[0],
                tstamp=row[1],
                filename=row[2],
                ctx_id=row[3],
                value_name=row[4],
                value=row[5],
                value_type=row[6],
            )
            for row in rows
        ]

    def all(self, projid: str | None = None) -> list[LogRecord]:
        if projid is None:
            rows = self._db.query(
                "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type"
                " FROM logs ORDER BY seq"
            )
        else:
            rows = self._db.query(
                "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type"
                " FROM logs WHERE projid = ? ORDER BY seq",
                (projid,),
            )
        return self._rows_to_records(rows)

    def by_names(self, projid: str, names: Sequence[str]) -> list[LogRecord]:
        if not names:
            return []
        placeholders = ",".join("?" for _ in names)
        rows = self._db.query(
            "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type"
            f" FROM logs WHERE projid = ? AND value_name IN ({placeholders}) ORDER BY seq",
            (projid, *names),
        )
        return self._rows_to_records(rows)

    def by_tstamp(self, projid: str, tstamp: str) -> list[LogRecord]:
        rows = self._db.query(
            "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type"
            " FROM logs WHERE projid = ? AND tstamp = ? ORDER BY seq",
            (projid, tstamp),
        )
        return self._rows_to_records(rows)

    def of_run(self, projid: str, tstamp: str, names: Sequence[str]) -> list[LogRecord]:
        """The rows of ``names`` in run ``tstamp``, in ``seq`` order: a covering
        seek of ``idx_logs_pushdown`` per name, not a walk of the run."""
        rows = self._db.query(
            "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type"
            " FROM logs INDEXED BY idx_logs_pushdown WHERE projid = ?"
            f" AND value_name IN ({','.join('?' * len(names))}) AND tstamp = ? ORDER BY seq",
            (projid, *names, tstamp),
        )
        return self._rows_to_records(rows)

    def distinct_names(self, projid: str) -> list[str]:
        rows = self._db.query(
            "SELECT DISTINCT value_name FROM logs WHERE projid = ? ORDER BY value_name",
            (projid,),
        )
        return [row[0] for row in rows]

    def distinct_tstamps(self, projid: str) -> list[str]:
        rows = self._db.query(
            "SELECT DISTINCT tstamp FROM logs WHERE projid = ? ORDER BY tstamp",
            (projid,),
        )
        return [row[0] for row in rows]

    def count(self) -> int:
        return self._db.count("logs")


class LoopRepository:
    """Access to the ``loops`` table: one row per loop iteration context."""

    def __init__(self, db: RelationalStore):
        self._db = db

    def add(self, record: LoopRecord) -> None:
        self.add_many([record])

    def add_many(self, records: Sequence[LoopRecord]) -> None:
        self._db.executemany(INSERT_LOOP_SQL, [r.as_row() for r in records])

    def _rows_to_records(self, rows: Iterable[tuple]) -> list[LoopRecord]:
        return [
            LoopRecord(
                projid=row[0],
                tstamp=row[1],
                filename=row[2],
                ctx_id=row[3],
                parent_ctx_id=row[4],
                loop_name=row[5],
                loop_iteration=row[6],
                iteration_value=row[7],
            )
            for row in rows
        ]

    def all(self, projid: str | None = None) -> list[LoopRecord]:
        if projid is None:
            rows = self._db.query(
                "SELECT projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name,"
                " loop_iteration, iteration_value FROM loops ORDER BY tstamp, ctx_id"
            )
        else:
            rows = self._db.query(
                "SELECT projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name,"
                " loop_iteration, iteration_value FROM loops WHERE projid = ?"
                " ORDER BY tstamp, ctx_id",
                (projid,),
            )
        return self._rows_to_records(rows)

    def by_context(self, projid: str, tstamp: str, filename: str) -> list[LoopRecord]:
        rows = self._db.query(
            "SELECT projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name,"
            " loop_iteration, iteration_value FROM loops"
            " WHERE projid = ? AND tstamp = ? AND filename = ? ORDER BY ctx_id",
            (projid, tstamp, filename),
        )
        return self._rows_to_records(rows)

    def get(self, projid: str, tstamp: str, filename: str, ctx_id: int) -> LoopRecord | None:
        rows = self._db.query(
            "SELECT projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name,"
            " loop_iteration, iteration_value FROM loops"
            " WHERE projid = ? AND tstamp = ? AND filename = ? AND ctx_id = ?",
            (projid, tstamp, filename, ctx_id),
        )
        records = self._rows_to_records(rows)
        return records[0] if records else None

    def count(self) -> int:
        return self._db.count("loops")


class Ts2VidRepository:
    """Access to the ``ts2vid`` table mapping timestamp epochs to version ids."""

    def __init__(self, db: RelationalStore):
        self._db = db

    def add(self, record: Ts2VidRecord) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO ts2vid (projid, ts_start, ts_end, vid, root_target)"
            " VALUES (?, ?, ?, ?, ?)",
            (record.projid, record.ts_start, record.ts_end, record.vid, record.root_target),
        )

    def all(self, projid: str | None = None) -> list[Ts2VidRecord]:
        if projid is None:
            rows = self._db.query(
                "SELECT projid, ts_start, ts_end, vid, root_target FROM ts2vid ORDER BY ts_start"
            )
        else:
            rows = self._db.query(
                "SELECT projid, ts_start, ts_end, vid, root_target FROM ts2vid"
                " WHERE projid = ? ORDER BY ts_start",
                (projid,),
            )
        return [Ts2VidRecord(*row) for row in rows]

    def runs_of(
        self, projid: str, filename: str, vids: Iterable[str] | None = None
    ) -> list[tuple[str, str]]:
        """``(vid, ts_start)`` of the epochs (of ``vids`` only, if given) that hold a log
        or loop row of ``filename``, oldest first.  Each epoch seeks the ``loops``
        key, then (only if no loop row matched) its own ``logs`` rows by
        ``(projid, tstamp)`` — left to itself SQLite would walk the project's
        whole ``idx_logs_pushdown`` range per epoch instead."""
        wanted = None if vids is None else sorted(vids)
        only = "" if wanted is None else f" AND e.vid IN ({','.join('?' * len(wanted))})"
        row = "EXISTS (SELECT 1 FROM {} WHERE projid = ? AND tstamp = e.ts_start AND filename = ?)"
        return self._db.query(
            f"SELECT e.vid, e.ts_start FROM ts2vid AS e WHERE e.projid = ?{only}"
            f" AND ({row.format('loops')} OR {row.format('logs INDEXED BY idx_logs_tstamp')})"
            " ORDER BY e.ts_start",
            (projid, *(wanted or ()), projid, filename, projid, filename),
        )

    def vid_for_tstamp(self, projid: str, tstamp: str) -> str | None:
        """Return the version id whose epoch covers ``tstamp``."""
        row = self._db.query_one(
            "SELECT vid FROM ts2vid WHERE projid = ? AND ts_start <= ? AND ts_end >= ?"
            " ORDER BY ts_start DESC LIMIT 1",
            (projid, tstamp, tstamp),
        )
        return row[0] if row else None

    def latest(self, projid: str) -> Ts2VidRecord | None:
        row = self._db.query_one(
            "SELECT projid, ts_start, ts_end, vid, root_target FROM ts2vid"
            " WHERE projid = ? ORDER BY ts_start DESC LIMIT 1",
            (projid,),
        )
        return Ts2VidRecord(*row) if row else None

    def count(self) -> int:
        return self._db.count("ts2vid")


class ObjectRepository:
    """Access to the ``obj_store`` table holding serialized large objects."""

    def __init__(self, db: RelationalStore):
        self._db = db

    def put(self, record: ObjectRecord) -> None:
        self._db.execute(
            INSERT_OBJECT_SQL,
            (
                record.projid,
                record.tstamp,
                record.filename,
                record.ctx_id,
                record.value_name,
                record.contents,
            ),
        )

    def get(
        self, projid: str, tstamp: str, filename: str, ctx_id: int, value_name: str
    ) -> ObjectRecord | None:
        row = self._db.query_one(
            "SELECT projid, tstamp, filename, ctx_id, value_name, contents FROM obj_store"
            " WHERE projid = ? AND tstamp = ? AND filename = ? AND ctx_id = ? AND value_name = ?",
            (projid, tstamp, filename, ctx_id, value_name),
        )
        return ObjectRecord(*row) if row else None

    def list_keys(self, projid: str, tstamp: str | None = None) -> list[tuple[str, str, int, str]]:
        """Return ``(tstamp, filename, ctx_id, value_name)`` keys for a project."""
        if tstamp is None:
            rows = self._db.query(
                "SELECT tstamp, filename, ctx_id, value_name FROM obj_store WHERE projid = ?"
                " ORDER BY tstamp, filename, ctx_id",
                (projid,),
            )
        else:
            rows = self._db.query(
                "SELECT tstamp, filename, ctx_id, value_name FROM obj_store"
                " WHERE projid = ? AND tstamp = ? ORDER BY filename, ctx_id",
                (projid, tstamp),
            )
        return [(row[0], row[1], row[2], row[3]) for row in rows]

    def count(self) -> int:
        return self._db.count("obj_store")


class BuildDepRepository:
    """Access to the ``build_deps`` table capturing the build DAG per version."""

    def __init__(self, db: RelationalStore):
        self._db = db

    def add(self, record: BuildDepRecord) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO build_deps (vid, target, deps, cmds, cached)"
            " VALUES (?, ?, ?, ?, ?)",
            (record.vid, record.target, record.deps_json(), record.cmds_json(), int(record.cached)),
        )

    def add_many(self, records: Sequence[BuildDepRecord]) -> None:
        self._db.executemany(
            "INSERT OR REPLACE INTO build_deps (vid, target, deps, cmds, cached)"
            " VALUES (?, ?, ?, ?, ?)",
            [
                (r.vid, r.target, r.deps_json(), r.cmds_json(), int(r.cached))
                for r in records
            ],
        )

    def by_vid(self, vid: str) -> list[BuildDepRecord]:
        rows = self._db.query(
            "SELECT vid, target, deps, cmds, cached FROM build_deps WHERE vid = ? ORDER BY target",
            (vid,),
        )
        return [BuildDepRecord.from_row(row) for row in rows]

    def get(self, vid: str, target: str) -> BuildDepRecord | None:
        row = self._db.query_one(
            "SELECT vid, target, deps, cmds, cached FROM build_deps WHERE vid = ? AND target = ?",
            (vid, target),
        )
        return BuildDepRecord.from_row(row) if row else None

    def mark_cached(self, vid: str, target: str, cached: bool = True) -> None:
        self._db.execute(
            "UPDATE build_deps SET cached = ? WHERE vid = ? AND target = ?",
            (int(cached), vid, target),
        )

    def count(self) -> int:
        return self._db.count("build_deps")
