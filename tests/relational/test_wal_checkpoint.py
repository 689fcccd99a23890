"""The WAL's upkeep: who checkpoints it, on which connection, and when.

A handle whose writer thread calls ``Database.checkpoint`` hands it the
checkpoints: its own connection stops auto-checkpointing inside commits,
and a due checkpoint runs on a second connection.  Every other handle keeps
SQLite's auto-checkpoint.
"""

from __future__ import annotations

import os
import sqlite3

from repro import ProjectConfig, Session
from repro.core.session import REPLAY
from repro.relational.database import CHECKPOINT_PAGES, Database
from repro.relational.repositories import INSERT_LOG_SQL

#: A value large enough that a few hundred rows pass the threshold.
BIG = "x" * 3_000


def fill(db: Database, rows: int, first: int = 0) -> None:
    """One transaction of ``rows`` big log rows."""
    with db.transaction() as connection:
        connection.executemany(
            INSERT_LOG_SQL, [("p", "t", "f.py", i, "blob", BIG, 0) for i in range(first, first + rows)]
        )


def wal_bytes(db: Database) -> int:
    try:
        return os.path.getsize(f"{db.path}-wal")
    except FileNotFoundError:
        return 0


def wal_frames(db: Database) -> int:
    """Frames in the WAL, read by a passive checkpoint on a connection of its own."""
    probe = sqlite3.connect(db.path)
    try:
        return probe.execute("PRAGMA wal_checkpoint(PASSIVE)").fetchone()[1]
    finally:
        probe.close()


def threshold_bytes(db: Database) -> int:
    page_size = db.query_one("PRAGMA page_size")[0]
    return 32 + CHECKPOINT_PAGES * (page_size + 24)


def fill_past_threshold(db: Database) -> int:
    """Write until a fresh WAL holds the threshold; returns the rows written."""
    written = 0
    while wal_bytes(db) < threshold_bytes(db):
        fill(db, 100, first=written)
        written += 100
    return written


class TestWhoCheckpoints:
    def test_a_handle_nobody_checkpoints_keeps_sqlites_auto_checkpoint(self, tmp_path):
        with Database(tmp_path / "flor.db") as db:
            fill(db, 10)
            assert db.query_one("PRAGMA wal_autocheckpoint") == (CHECKPOINT_PAGES,)

    def test_a_replay_session_keeps_it(self, tmp_path):
        config = ProjectConfig(tmp_path / "proj", "p")
        with Session(config, default_filename="train.py") as recording:
            recording.log("loss", 0.5)
            tstamp = recording.tstamp
            recording.commit()
            assert recording.db.query_one("PRAGMA wal_autocheckpoint") == (0,)
        replay = Session(config, mode=REPLAY, replay_tstamp=tstamp, default_filename="train.py")
        try:
            assert replay.db.query_one("PRAGMA wal_autocheckpoint") == (CHECKPOINT_PAGES,)
        finally:
            replay.close()

    def test_the_first_call_takes_checkpoints_over(self, tmp_path):
        with Database(tmp_path / "flor.db") as db:
            assert db.checkpoint() is False  # nothing due yet
            assert db.query_one("PRAGMA wal_autocheckpoint") == (0,)

    def test_memory_has_no_wal(self):
        with Database(":memory:") as db:
            fill(db, 10)
            assert db.checkpoint() is False
            assert db.count("logs") == 10


class TestTheCheckpoint:
    def test_it_runs_when_due_and_never_on_the_handles_connection(self, tmp_path):
        with Database(tmp_path / "flor.db") as db:
            db.checkpoint()
            statements: list[str] = []
            db._connection.set_trace_callback(statements.append)
            rows = fill_past_threshold(db)
            assert wal_bytes(db) >= threshold_bytes(db)  # no auto-checkpoint folded it
            assert db.checkpoint() is True
            fill(db, 1, first=rows)  # the first write after a full checkpoint resets the WAL...
            assert db.checkpoint() is False  # ...and the count sees the reset
            assert db.count("logs") == rows + 1
            assert wal_frames(db) < 10
            assert not [s for s in statements if "wal_checkpoint" in s], statements

    def test_close_leaves_no_wal_file(self, tmp_path):
        db = Database(tmp_path / "flor.db")
        db.checkpoint()
        rows = fill_past_threshold(db)
        assert db.checkpoint() is True  # the second connection is open
        fill(db, 10, first=rows)
        db.close()
        assert not os.path.exists(tmp_path / "flor.db-wal")
        with Database(tmp_path / "flor.db") as reopened:
            assert reopened.count("logs") == rows + 10
