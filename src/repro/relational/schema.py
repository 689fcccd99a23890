"""DDL for the FlorDB relational data model.

The schema follows Figure 1 of the paper.  Columns keep the paper's names so
that queries written against the paper translate directly.  Log and loop rows
are append-only; the mutable tables are ``build_deps.cached``, the job
orchestration pair ``jobs``/``job_events`` (``jobs`` rows advance through a
state machine, ``job_events`` is an append-only audit/progress trail — see
:mod:`repro.jobs`) and the per-tenant admission-control rules in
``qos_policies`` (see :mod:`repro.qos`).
"""

from __future__ import annotations

import sqlite3
import zlib

from ..errors import SchemaError

SCHEMA_VERSION = 1

#: Physical tables in creation order (white boxes of Figure 1, plus the
#: job-orchestration tables added for the production service layer).
TABLES = (
    "meta",
    "logs",
    "loops",
    "ts2vid",
    "obj_store",
    "build_deps",
    "jobs",
    "job_events",
    "qos_policies",
)

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key             TEXT PRIMARY KEY,
    value           TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS logs (
    projid          TEXT NOT NULL,
    tstamp          TEXT NOT NULL,
    filename        TEXT NOT NULL,
    ctx_id          INTEGER NOT NULL,
    value_name      TEXT NOT NULL,
    value           TEXT,
    value_type      INTEGER NOT NULL DEFAULT 0,
    seq             INTEGER PRIMARY KEY AUTOINCREMENT
);
-- Covering index for the query engine's pushdown scans: a name-filtered
-- read (the flor.dataframe hot path) is answered entirely from the index,
-- and the trailing columns let SQLite skip the rowid lookup per match.
CREATE INDEX IF NOT EXISTS idx_logs_pushdown
    ON logs (projid, value_name, tstamp, filename, ctx_id, value_type, value);
-- Range pushdown (--since/--until, latest-run reads) ordered by append
-- sequence within a run.
CREATE INDEX IF NOT EXISTS idx_logs_tstamp ON logs (projid, tstamp, seq);
-- Indexes older releases kept that no statement seeks: every append paid for
-- them.  Dropping them here migrates the files those releases wrote.
DROP INDEX IF EXISTS idx_logs_name;
DROP INDEX IF EXISTS idx_logs_ctx;
DROP INDEX IF EXISTS idx_loops_parent;

CREATE TABLE IF NOT EXISTS loops (
    projid          TEXT NOT NULL,
    tstamp          TEXT NOT NULL,
    filename        TEXT NOT NULL,
    ctx_id          INTEGER NOT NULL,
    parent_ctx_id   INTEGER,
    loop_name       TEXT NOT NULL,
    loop_iteration  INTEGER NOT NULL,
    iteration_value TEXT,
    PRIMARY KEY (projid, tstamp, filename, ctx_id)
);
-- Covering index for the run-scoped ancestry join: fetching every loop row
-- of one (tstamp, filename) run never touches the base table.
CREATE INDEX IF NOT EXISTS idx_loops_ancestry
    ON loops (projid, tstamp, filename, ctx_id, parent_ctx_id,
              loop_name, loop_iteration, iteration_value);

CREATE TABLE IF NOT EXISTS ts2vid (
    projid          TEXT NOT NULL,
    ts_start        TEXT NOT NULL,
    ts_end          TEXT NOT NULL,
    vid             TEXT NOT NULL,
    root_target     TEXT,
    PRIMARY KEY (projid, ts_start)
);
CREATE INDEX IF NOT EXISTS idx_ts2vid_vid ON ts2vid (vid);

CREATE TABLE IF NOT EXISTS obj_store (
    projid          TEXT NOT NULL,
    tstamp          TEXT NOT NULL,
    filename        TEXT NOT NULL,
    ctx_id          INTEGER NOT NULL,
    value_name      TEXT NOT NULL,
    contents        BLOB,
    PRIMARY KEY (projid, tstamp, filename, ctx_id, value_name)
);

CREATE TABLE IF NOT EXISTS build_deps (
    vid             TEXT NOT NULL,
    target          TEXT NOT NULL,
    deps            TEXT NOT NULL DEFAULT '[]',
    cmds            TEXT NOT NULL DEFAULT '[]',
    cached          INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (vid, target)
);

-- Durable background jobs (repro.jobs).  A row is the single source of
-- truth for one unit of supervised work (a hindsight backfill or replay):
-- workers claim rows with a compare-and-swap on ``state`` and hold a
-- heartbeat-renewed lease, so a crashed worker's job is observable and
-- reclaimable instead of lost.  Timestamps are unix seconds (REAL).
CREATE TABLE IF NOT EXISTS jobs (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    project          TEXT NOT NULL,
    kind             TEXT NOT NULL,
    payload          TEXT NOT NULL DEFAULT '{}',
    state            TEXT NOT NULL DEFAULT 'queued',
    priority         INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    not_before       REAL NOT NULL DEFAULT 0.0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    lease_owner      TEXT,
    lease_expires    REAL,
    created_at       REAL NOT NULL DEFAULT 0.0,
    updated_at       REAL NOT NULL DEFAULT 0.0,
    started_at       REAL,
    finished_at      REAL,
    error            TEXT,
    result           TEXT
);
-- The claim query: queued rows whose backoff has elapsed, best priority
-- first, FIFO within a priority.
CREATE INDEX IF NOT EXISTS idx_jobs_claim ON jobs (state, not_before, priority, id);
CREATE INDEX IF NOT EXISTS idx_jobs_project ON jobs (project, id);

-- Append-only job trail: state transitions, per-version progress
-- checkpoints (kind='version'), and worker errors.  A resumed backfill
-- reads its own 'version' events to skip versions already replayed.
-- Multi-tenant QoS policy table (repro.qos).  One row per admission rule:
-- ``selector`` is an exact tenant name, a ``prefix*`` pattern, or ``*``
-- (the default fallback, excluded from the ordered scan).  Non-``*`` rules
-- are evaluated first-match-wins in ``position`` order, which is what makes
-- shadowing detectable at write time (see repro.qos.policy).  NULL limit
-- columns mean "unlimited" for that dimension.
CREATE TABLE IF NOT EXISTS qos_policies (
    selector        TEXT PRIMARY KEY,
    position        INTEGER NOT NULL DEFAULT 0,
    rate            REAL,
    burst           REAL,
    byte_quota      INTEGER,
    window_seconds  REAL NOT NULL DEFAULT 60.0,
    priority        TEXT NOT NULL DEFAULT 'normal',
    updated_at      REAL NOT NULL DEFAULT 0.0
);
CREATE INDEX IF NOT EXISTS idx_qos_position ON qos_policies (position, selector);

CREATE TABLE IF NOT EXISTS job_events (
    seq             INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id          INTEGER NOT NULL,
    kind            TEXT NOT NULL,
    payload         TEXT NOT NULL DEFAULT '{}',
    created_at      REAL NOT NULL DEFAULT 0.0
);
CREATE INDEX IF NOT EXISTS idx_job_events_job ON job_events (job_id, seq);
"""

#: ``PRAGMA user_version`` of a file the script above has run on.  Derived
#: from the text, so any edit to ``_DDL`` re-runs it once on every existing
#: file (the migration) and later opens skip it.
DDL_STAMP = zlib.crc32(_DDL.encode()) & 0x7FFFFFFF


def create_schema(connection: sqlite3.Connection) -> None:
    """Create all tables and indexes unless this ``_DDL`` already ran.

    Raises :class:`SchemaError` if the database was written by an
    incompatible library version — checked on every open, stamped or not.
    """
    if connection.execute("PRAGMA user_version").fetchone()[0] != DDL_STAMP:
        connection.executescript(f"{_DDL}PRAGMA user_version = {DDL_STAMP};")
    row = connection.execute("SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
    if row is None:
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        connection.commit()
        return
    found = int(row[0])
    if found != SCHEMA_VERSION:
        raise SchemaError(
            f"database schema version {found} is incompatible with library version {SCHEMA_VERSION}"
        )


def table_columns(connection: sqlite3.Connection, table: str) -> list[str]:
    """Return the column names of ``table`` in declaration order."""
    if table not in TABLES:
        raise SchemaError(f"unknown table: {table!r}")
    rows = connection.execute(f"PRAGMA table_info({table})").fetchall()
    return [row[1] for row in rows]
