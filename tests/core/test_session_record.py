"""Tests for the record-mode session: the paper's core API surface."""

from __future__ import annotations

import json

import pytest

from repro import ProjectConfig, Session, active_session, flor
from repro.core.session import get_active_session
from repro.errors import DatabaseError, ObjectNotFoundError, RecordingError, ReplayError


class TestLog:
    def test_log_returns_value_unchanged(self, session):
        assert session.log("acc", 0.9) == 0.9

    def test_log_buffers_until_flush(self, session):
        session.log("acc", 0.9)
        assert session.pending_records == 1
        assert session.logs.count() == 0
        session.flush()
        assert session.logs.count() == 1
        assert session.pending_records == 0

    def test_log_outside_loop_uses_top_level_ctx(self, session):
        session.log("lr", 0.01)
        session.flush()
        assert session.logs.all(session.projid)[0].ctx_id == 0

    def test_log_records_carry_projid_tstamp_filename(self, session):
        session.log("acc", 1)
        session.flush()
        record = session.logs.all(session.projid)[0]
        assert record.projid == "testproj"
        assert record.filename == "train.py"
        assert record.tstamp == session.tstamp

    def test_complex_values_roundtrip_through_dataframe(self, session):
        session.log("headings", ["Intro", "Methods"])
        frame = session.dataframe("headings")
        assert frame.row(0)["headings"] == ["Intro", "Methods"]


class TestArg:
    def test_arg_uses_default_when_unset(self, session):
        assert session.arg("epochs", 5) == 5

    def test_arg_prefers_cli_args_mapping(self, project):
        with Session(project, default_filename="train.py", cli_args={"epochs": "9"}) as session:
            assert session.arg("epochs", 5) == 9  # coerced to the default's type

    def test_arg_reads_sys_argv(self, project, monkeypatch):
        monkeypatch.setattr("sys.argv", ["train.py", "--lr=0.5", "batch=16"])
        with Session(project, default_filename="train.py") as session:
            assert session.arg("lr", 0.1) == 0.5
            assert session.arg("batch", 32) == 16

    def test_arg_is_logged(self, session):
        session.arg("hidden", 500)
        frame = session.dataframe("hidden")
        assert frame.row(0)["hidden"] == 500

    def test_arg_bool_coercion(self, project):
        with Session(project, default_filename="t.py", cli_args={"flag": "true"}) as session:
            assert session.arg("flag", False) is True

    def test_arg_without_default(self, project):
        with Session(project, default_filename="t.py", cli_args={"name": "resnet"}) as session:
            assert session.arg("name") == "resnet"


class TestLoop:
    def test_loop_yields_original_values(self, session):
        assert list(session.loop("epoch", range(3))) == [0, 1, 2]
        assert list(session.loop("doc", ["a.pdf", "b.pdf"])) == ["a.pdf", "b.pdf"]

    def test_loop_records_one_row_per_iteration(self, session):
        list(session.loop("epoch", range(4)))
        session.flush()
        records = session.loops.all(session.projid)
        assert len(records) == 4
        assert [r.loop_iteration for r in records] == [0, 1, 2, 3]
        assert all(r.loop_name == "epoch" for r in records)
        assert all(r.parent_ctx_id == 0 for r in records)

    def test_nested_loops_link_parent_contexts(self, session):
        for _epoch in session.loop("epoch", range(2)):
            for _step in session.loop("step", range(2)):
                session.log("loss", 1.0)
        session.flush()
        loops = {r.ctx_id: r for r in session.loops.all(session.projid)}
        steps = [r for r in loops.values() if r.loop_name == "step"]
        assert len(steps) == 4
        assert all(loops[s.parent_ctx_id].loop_name == "epoch" for s in steps)

    def test_logs_inside_loop_carry_iteration_ctx(self, session):
        for epoch in session.loop("epoch", range(2)):
            session.log("acc", 0.5 + epoch)
        session.flush()
        logs = session.logs.all(session.projid)
        loop_rows = {r.ctx_id: r for r in session.loops.all(session.projid)}
        assert [loop_rows[r.ctx_id].loop_iteration for r in logs] == [0, 1]

    def test_loop_over_empty_iterable(self, session):
        assert list(session.loop("epoch", [])) == []
        session.flush()
        assert session.loops.count() == 0

    def test_ctx_ids_unique_within_run(self, session):
        for _ in session.loop("a", range(3)):
            pass
        for _ in session.loop("b", range(3)):
            pass
        session.flush()
        ctx_ids = [r.ctx_id for r in session.loops.all(session.projid)]
        assert len(set(ctx_ids)) == len(ctx_ids)


class TestIteration:
    def test_iteration_records_single_loop_row(self, session):
        with session.iteration("document", None, "report.pdf"):
            session.log("page_color", 2)
        session.flush()
        loops = session.loops.all(session.projid)
        assert len(loops) == 1
        assert loops[0].loop_name == "document"
        assert loops[0].iteration_value == "report.pdf"
        assert loops[0].loop_iteration == 0

    def test_iteration_auto_increments_index(self, session):
        with session.iteration("document", None, "a.pdf"):
            pass
        with session.iteration("document", None, "b.pdf"):
            pass
        session.flush()
        iterations = [r.loop_iteration for r in session.loops.all(session.projid)]
        assert iterations == [0, 1]

    def test_iteration_with_explicit_index(self, session):
        with session.iteration("document", 7, "x.pdf"):
            pass
        session.flush()
        assert session.loops.all(session.projid)[0].loop_iteration == 7

    def test_nested_iteration_and_loop(self, session):
        with session.iteration("document", None, "a.pdf"):
            for _page in session.loop("page", range(3)):
                session.log("page_color", 0)
        session.flush()
        pages = [r for r in session.loops.all(session.projid) if r.loop_name == "page"]
        documents = [r for r in session.loops.all(session.projid) if r.loop_name == "document"]
        assert len(pages) == 3
        assert all(p.parent_ctx_id == documents[0].ctx_id for p in pages)


class TestCommit:
    def test_commit_flushes_and_advances_timestamp(self, session):
        session.log("acc", 1.0)
        before = session.tstamp
        vid = session.commit("first run")
        assert session.logs.count() == 1
        assert session.tstamp > before
        assert vid is not None

    def test_commit_writes_ts2vid_epoch(self, session):
        session.log("acc", 1.0)
        first_tstamp = session.tstamp
        vid = session.commit("run", root_target="train")
        epochs = session.ts2vid.all(session.projid)
        assert len(epochs) == 1
        assert epochs[0].ts_start == first_tstamp
        assert epochs[0].vid == vid
        assert epochs[0].root_target == "train"

    def test_records_after_commit_use_new_timestamp(self, session):
        session.log("acc", 1.0)
        session.commit()
        session.log("acc", 2.0)
        session.flush()
        tstamps = {r.tstamp for r in session.logs.all(session.projid)}
        assert len(tstamps) == 2

    def test_commit_snapshots_tracked_files(self, session, project):
        (project.root / "train.py").write_text("print('hello')\n")
        session.track("train.py")
        vid = session.commit("with file")
        assert "hello" in session.repository.read_file(vid, "train.py")

    def test_track_rejects_paths_outside_project(self, session, tmp_path):
        outside = tmp_path.parent / "elsewhere.py"
        with pytest.raises(RecordingError):
            session.track(outside if outside.is_absolute() else outside.resolve())


class TestActiveSession:
    def test_facade_routes_to_activated_session(self, session):
        with active_session(session):
            flor.log("acc", 0.25)
            assert flor.pending_records() == 1
            assert get_active_session() is session

    def test_nested_activation_restores_previous(self, session, make_session):
        other = make_session("other", default_filename="x.py")
        with active_session(session):
            with active_session(other):
                assert get_active_session() is other
            assert get_active_session() is session

    def test_no_active_session_raises_when_default_disabled(self):
        with pytest.raises(RecordingError):
            get_active_session(create_default=False)

    def test_facade_dataframe_and_utils_latest(self, session):
        with active_session(session):
            for epoch in flor.loop("epoch", range(2)):
                flor.log("acc", epoch * 0.1)
            flor.commit()
            for epoch in flor.loop("epoch", range(2)):
                flor.log("acc", 0.5 + epoch * 0.1)
            flor.commit()
            frame = flor.dataframe("acc")
            assert len(frame) == 4
            newest = flor.utils.latest(frame)
            assert len(newest) == 2
            assert min(newest["acc"].to_list()) >= 0.5

    def test_invalid_session_mode_rejected(self, project):
        with pytest.raises(RecordingError):
            Session(project, mode="weird")


class TestFailedOpen:
    def test_a_damaged_legacy_archive_closes_the_database_it_opened(self, project, monkeypatch):
        """The repository raises after the database opened: every retry of the
        tenant must release its handle rather than leak one."""
        from repro.core import session as session_module

        opened = []

        class RecordingDatabase(session_module.Database):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(session_module, "Database", RecordingDatabase)
        archive = project.objects_dir / "archive"
        archive.mkdir()
        (archive / "pack-0000.bin").write_bytes(b"not the archived blob")
        (archive / "index.json").write_text(
            json.dumps({"ab" * 32: {"pack": "pack-0000.bin", "offset": 0, "length": 21}})
        )
        for _retry in range(2):
            with pytest.raises(ObjectNotFoundError, match="damaged"):
                Session(project)
        assert len(opened) == 2
        for db in opened:
            with pytest.raises(DatabaseError, match="closed"):
                db.query("SELECT 1")

    def test_an_injected_database_stays_open(self, project, db):
        with pytest.raises(ReplayError):
            Session(project, db=db, mode="replay")
        assert db.query("SELECT 1") == [(1,)]
