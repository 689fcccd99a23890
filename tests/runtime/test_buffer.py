"""Tests for the record buffer: staging, deferred encoding, drains."""

from __future__ import annotations

import pytest

from repro.relational.database import Database
from repro.relational.records import (
    VALUE_TYPE_FLOAT,
    VALUE_TYPE_INT,
    VALUE_TYPE_JSON,
    VALUE_TYPE_NONE,
    VALUE_TYPE_STR,
)
from repro.runtime import BackgroundFlusher, RecordBuffer
from repro.runtime.buffer import DEFERRED


def stage(buffer: RecordBuffer, name: str, value, ctx_id: int = 0) -> None:
    buffer.stage_log("p", "t1", "train.py", ctx_id, name, value)


class TestStaging:
    def test_scalars_defer_encoding(self):
        buffer = RecordBuffer()
        for value in (1, 1.5, "text", True, None):
            stage(buffer, "v", value)
        # No encode_value work has happened yet: the staged tuples carry the
        # raw value plus the deferral sentinel.
        assert all(row[6] is DEFERRED for row in buffer._logs)
        assert buffer.pending == 5

    def test_mutable_values_encode_eagerly_for_snapshot_semantics(self):
        buffer = RecordBuffer()
        value = {"k": 1}
        stage(buffer, "cfg", value)
        value["k"] = 999  # mutation after the log call must not leak in
        log_rows, _ = buffer.drain_rows()
        assert log_rows[0][5] == '{"k": 1}'
        assert log_rows[0][6] == VALUE_TYPE_JSON

    def test_pending_counts_split_logs_and_loops(self):
        buffer = RecordBuffer()
        stage(buffer, "a", 1)
        buffer.stage_loop("p", "t1", "train.py", 1, 0, "epoch", 0, "0")
        assert buffer.pending == 2
        assert buffer.pending_logs == 1
        assert buffer.pending_loops == 1


class TestDrain:
    def test_drain_rows_hands_over_the_staged_rows(self):
        """A drain is a swap: the rows leave as staged, values still raw."""
        buffer = RecordBuffer()
        stage(buffer, "f", 0.25)
        stage(buffer, "cfg", [1])
        log_rows, loop_rows = buffer.drain_rows()
        assert loop_rows == []
        assert log_rows == [
            ("p", "t1", "train.py", 0, "f", 0.25, DEFERRED),
            ("p", "t1", "train.py", 0, "cfg", "[1]", VALUE_TYPE_JSON),
        ]

    @pytest.mark.parametrize("closed", [False, True], ids=["async", "closed"])
    def test_written_rows_encode_deferred_scalars(self, closed):
        """The writer encodes what the buffer deferred, on either write path."""
        buffer = RecordBuffer()
        stage(buffer, "i", 7)
        stage(buffer, "f", 0.25)
        stage(buffer, "s", "hi")
        stage(buffer, "n", None)
        with Database(":memory:") as db:
            flusher = BackgroundFlusher(db)
            if closed:
                flusher.close()
            flusher.submit(*buffer.drain_rows())
            flusher.close()
            written = db.query("SELECT value_name, value, value_type FROM logs")
        assert {name: (value, value_type) for name, value, value_type in written} == {
            "i": ("7", VALUE_TYPE_INT),
            "f": ("0.25", VALUE_TYPE_FLOAT),
            "s": ("hi", VALUE_TYPE_STR),
            "n": (None, VALUE_TYPE_NONE),
        }
        assert buffer.pending == 0

    def test_drain_encoded_encodes_only_deferred_values(self):
        """Rows that leave the session carry no sentinel: it would not keep
        its identity through a pickle."""
        buffer = RecordBuffer()
        stage(buffer, "acc", 0.5, ctx_id=3)
        stage(buffer, "cfg", [1])
        buffer.stage_loop("p", "t1", "train.py", 3, 0, "epoch", 2, "2")
        logs, loops = buffer.drain_encoded()
        assert logs == [
            ("p", "t1", "train.py", 3, "acc", "0.5", VALUE_TYPE_FLOAT),
            ("p", "t1", "train.py", 0, "cfg", "[1]", VALUE_TYPE_JSON),
        ]
        assert loops == [("p", "t1", "train.py", 3, 0, "epoch", 2, "2")]
        assert buffer.pending == 0

    def test_drain_is_destructive(self):
        buffer = RecordBuffer()
        stage(buffer, "a", 1)
        buffer.drain_rows()
        assert buffer.drain_rows() == ([], [])


class TestStagedLoopIterations:
    def test_filters_by_run_file_and_loop(self):
        buffer = RecordBuffer()
        buffer.stage_loop("p", "t1", "train.py", 1, 0, "epoch", 0, "0")
        buffer.stage_loop("p", "t1", "train.py", 2, 0, "epoch", 4, "4")
        buffer.stage_loop("p", "t1", "train.py", 3, 0, "step", 9, "9")
        buffer.stage_loop("p", "t2", "train.py", 4, 0, "epoch", 7, "7")
        buffer.stage_loop("p", "t1", "other.py", 5, 0, "epoch", 8, "8")
        assert buffer.staged_loop_iterations("t1", "train.py", "epoch") == [0, 4]
        assert buffer.staged_loop_iterations("t1", "train.py", "step") == [9]
        assert buffer.staged_loop_iterations("t9", "train.py", "epoch") == []
