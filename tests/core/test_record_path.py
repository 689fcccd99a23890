"""Session-level tests for the async record path (repro.runtime wiring)."""

from __future__ import annotations

import pytest

from repro import ProjectConfig, Session
from repro.relational.database import Database
from repro.runtime import BackgroundFlusher
from repro.service import DatabasePool, FlorService


class TestFlushModes:
    def test_invalid_flush_mode_rejected(self, project, tmp_path):
        """The knob is gone at every layer: no value of it is accepted."""
        with pytest.raises(TypeError):
            Session(project, flush_mode="sync")
        with pytest.raises(TypeError):
            BackgroundFlusher(None, mode="sync")
        with pytest.raises(TypeError):
            DatabasePool(tmp_path, flush_mode="sync")
        with pytest.raises(TypeError):
            FlorService(tmp_path, flush_mode="sync")

    def test_replay_flush_and_commit_write_nothing(self, project):
        """A replay session stages; whoever replays it lands the rows."""
        with Session(project, default_filename="t.py") as recorder:
            recorder.log("acc", 1.0)
            tstamp = recorder.tstamp
            recorder.commit()
            replayer = Session(
                project,
                db=recorder.db,
                repository=recorder.repository,
                mode="replay",
                default_filename="t.py",
                replay_tstamp=tstamp,
            )
            replayer.log("loss", 0.5)
            replayer.flush()
            assert replayer.commit() is None
            assert len(replayer.dataframe("acc")) == 1  # reads are not a write path either
            replayer.close()
            assert replayer.flusher.stats.submitted_batches == 0
            assert recorder.logs.count() == 1
            assert [r.value_name for r in replayer.take_pending_records()[0]] == ["loss"]
            assert len(recorder.repository) == 1  # no second version either


class TestAsyncFlush:
    def test_flush_is_a_read_your_writes_barrier(self, session):
        for i in range(50):
            session.log("acc", i * 0.1)
        session.flush()
        assert session.logs.count() == 50
        assert session.pending_records == 0

    def test_flush_without_wait_hands_off_and_returns(self, session):
        session.log("acc", 1.0)
        session.flush(wait=False)
        assert session.pending_log_records == 0  # staged rows left the buffer
        session.flush()  # barrier
        assert session.logs.count() == 1

    def test_stage_threshold_submits_in_the_background(self, session):
        session._stage_threshold = 10
        for i in range(25):
            session.log("acc", float(i))
        # At least two threshold crossings submitted without an explicit flush.
        assert session.flusher.stats.submitted_batches >= 2
        session.flush()
        assert session.logs.count() == 25

    def test_dataframe_after_async_logging_sees_every_row(self, session):
        for epoch in session.loop("epoch", range(5)):
            session.log("loss", 1.0 / (epoch + 1))
        frame = session.dataframe("loss")
        assert len(frame) == 5

    def test_iteration_auto_index_survives_background_submits(self, session):
        session._stage_threshold = 1  # force a submit on every log
        with session.iteration("document", None, "a.pdf"):
            session.log("pages", 3)
        with session.iteration("document", None, "b.pdf"):
            session.log("pages", 5)
        session.flush()
        iterations = sorted(
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "document"
        )
        assert iterations == [0, 1]

    def test_iteration_auto_index_continues_after_explicit_and_loops(self, session):
        with session.iteration("document", 7, "x.pdf"):
            pass
        with session.iteration("document", None, "y.pdf"):
            pass  # continues past the explicit index
        for _ in session.loop("page", range(3)):
            pass
        with session.iteration("page", None, "extra"):
            pass  # continues past the recorded loop iterations
        session.flush()
        documents = sorted(
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "document"
        )
        pages = sorted(
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "page"
        )
        assert documents == [7, 8]
        assert pages == [0, 1, 2, 3]

    def test_iteration_auto_index_restarts_each_epoch(self, session):
        with session.iteration("document", None, "a.pdf"):
            pass
        session.commit("epoch 1")
        with session.iteration("document", None, "b.pdf"):
            pass
        session.flush()
        iterations = [
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "document"
        ]
        assert iterations == [0, 0]  # fresh tstamp, fresh numbering


class TestFlushFailure:
    def test_sync_flush_failure_keeps_records_for_retry(self, project, monkeypatch):
        """Regression: a failed inline write must not lose staged records.

        Inline is what a closed flusher does (an atexit commit after
        ``close()``): the failure reaches ``flush()`` itself, which restores
        the rows.  A failure on the worker is retried and then dropped."""
        with Session(project, default_filename="t.py") as session:
            session.log("acc", 0.9)
            session.flusher.close()

            def broken_transaction():
                raise RuntimeError("disk on fire")

            monkeypatch.setattr(session.db, "transaction", broken_transaction)
            with pytest.raises(RuntimeError):
                session.flush()
            monkeypatch.undo()
            assert session.pending_records == 1  # restored, not dropped
            session.flush()
            assert session.logs.count() == 1


class TestLifecycle:
    def test_close_flushes_staged_records(self, tmp_path):
        config = ProjectConfig(tmp_path / "proj", "p").ensure_layout()
        db = Database(config.db_path)
        session = Session(config, db=db, default_filename="t.py")
        session.log("acc", 0.9)
        session.close()
        assert db.count("logs") == 1
        db.close()

    def test_checkpoints_drain_before_commit(self, session):
        state = {"w": 0.0}
        with session.checkpointing(state=state):
            for epoch in session.loop("epoch", range(3)):
                state["w"] += 1.0
                session.log("w", state["w"])
        session.commit("run")
        # After the commit barrier every saved checkpoint is durable.
        assert session.checkpoints.saved >= 1
        stored = session.objects.count()
        assert stored >= session.checkpoints.saved
