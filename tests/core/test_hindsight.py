"""Tests for multiversion hindsight logging (the backfill engine)."""

from __future__ import annotations

import shutil

import pytest

from repro import HindsightEngine, ProjectConfig, ReplayPlan, Session
from repro.core.api import flor
from repro.core.session import REPLAY, active_session
from repro.errors import ReplayError
from repro.relational.repositories import LogRepository
from repro.workloads import VersionedScriptWorkload


#: Groups of ``logs`` holding the same cell more than once (must be empty).
NO_ROW_TWICE = (
    "SELECT projid, tstamp, filename, ctx_id, value_name, COUNT(*) FROM logs"
    " GROUP BY projid, tstamp, filename, ctx_id, value_name HAVING COUNT(*) > 1"
)


#: A ``weight`` statement whose replay fails in version 1's second epoch.
FAILS_HALF_WAY = (
    'flor.log("weight", state["w"] if (lr, epoch) != (0.02, 1)'
    ' else int("replay failed half-way"))'
)


@pytest.fixture()
def versioned(free_session):
    """Three committed versions of train.py, none of which log 'weight'."""
    workload = VersionedScriptWorkload(versions=3, epochs=4, steps=2, refactor=True)
    vids = workload.record_all_versions(free_session)
    return free_session, workload, vids


class TestVersionInventory:
    def test_version_epochs_lists_all_committed_versions(self, versioned):
        session, workload, vids = versioned
        engine = HindsightEngine(session)
        epochs = engine.version_epochs("train.py")
        assert [vid for vid, _ts in epochs] == vids
        assert len({ts for _vid, ts in epochs}) == len(vids)

    def test_historical_source_matches_recorded_version(self, versioned):
        session, workload, vids = versioned
        engine = HindsightEngine(session)
        source = engine.historical_source(vids[0], "train.py")
        assert 'flor.arg("lr", 0.01)' in source  # version 0 learning rate
        assert "weight" not in source


class TestBackfill:
    def test_backfill_fills_missing_column_across_all_versions(self, versioned):
        session, workload, vids = versioned
        before = session.dataframe("loss", "weight")
        assert all(row.get("weight") is None for row in before.to_records())

        engine = HindsightEngine(session)
        report = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert report.versions_replayed == len(vids)
        assert report.new_records == len(vids) * workload.epochs * workload.steps

        after = session.dataframe("loss", "weight")
        assert len(after) == len(before)
        assert not any(row.get("weight") is None for row in after.to_records())

    def test_backfilled_values_reflect_each_versions_hyperparameters(self, versioned):
        session, workload, vids = versioned
        engine = HindsightEngine(session)
        engine.backfill("train.py", new_source=workload.hindsight_source())
        frame = session.dataframe("weight")
        # Learning rates were 0.01 * (version + 1); final weights must therefore differ per run.
        finals = {}
        for row in frame.to_records():
            finals.setdefault(row["tstamp"], 0.0)
            finals[row["tstamp"]] = max(finals[row["tstamp"]], row["weight"])
        assert len(set(round(v, 9) for v in finals.values())) == len(vids)

    def test_backfill_reports_injected_statement_counts(self, versioned):
        session, workload, _vids = versioned
        engine = HindsightEngine(session)
        report = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert all(v.injected_statements == 1 for v in report.versions)
        assert all(v.ok for v in report.versions)

    def test_backfill_is_idempotent(self, versioned):
        session, workload, _vids = versioned
        engine = HindsightEngine(session)
        first = engine.backfill("train.py", new_source=workload.hindsight_source())
        second = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert first.new_records > 0
        assert second.new_records == 0

    def test_a_version_that_does_not_compile_fails_alone(self, versioned, monkeypatch):
        """Version 1 gains a module-level ``return`` (``ast.parse`` accepts it,
        ``compile`` does not): its replay fails, the other two land."""
        session, workload, vids = versioned
        engine = HindsightEngine(session)
        recorded = engine.historical_source

        def source_of(vid, filename):
            source = recorded(vid, filename)
            return source.rstrip("\n") + "\nreturn\n" if vid == vids[1] else source

        monkeypatch.setattr(engine, "historical_source", source_of)
        report = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert [v.ok for v in report.versions] == [True, False, True]
        assert "SyntaxError" in report.versions[1].replay.error
        assert report.new_records == 2 * workload.epochs * workload.steps

    def test_backfill_restricted_to_selected_versions(self, versioned):
        session, workload, vids = versioned
        engine = HindsightEngine(session)
        report = engine.backfill(
            "train.py", new_source=workload.hindsight_source(), versions=[vids[-1]]
        )
        assert len(report.versions) == 1
        assert report.versions[0].vid == vids[-1]

    def test_backfill_with_replay_plan_limits_execution(self, versioned):
        session, workload, _vids = versioned
        engine = HindsightEngine(session)
        report = engine.backfill(
            "train.py",
            new_source=workload.hindsight_source(),
            plan=ReplayPlan.only(epoch=[workload.epochs - 1]),
        )
        assert report.iterations_skipped > 0
        # At minimum the target epoch's step-level records materialize per
        # version; epochs re-executed to bridge from the nearest checkpoint may
        # add a few more, but the full cross-product must not be re-done.
        full = len(report.versions) * workload.epochs * workload.steps
        assert len(report.versions) * workload.steps <= report.new_records < full

    def test_backfill_uses_working_copy_when_no_source_given(self, versioned):
        session, workload, _vids = versioned
        # The working copy on disk is the last version; add the new statement to it.
        (session.config.root / "train.py").write_text(workload.hindsight_source())
        engine = HindsightEngine(session)
        report = engine.backfill("train.py")
        assert report.new_records > 0

    def test_backfill_missing_file_raises(self, versioned):
        from repro.errors import ReplayError

        session, _workload, _vids = versioned
        engine = HindsightEngine(session)
        with pytest.raises(ReplayError):
            engine.backfill("never_committed.py")

    @pytest.mark.parametrize("mode", ["thread", "gpu"])
    def test_backfill_unknown_parallelism_raises(self, versioned, mode):
        session, workload, _vids = versioned
        engine = HindsightEngine(session)
        with pytest.raises(ReplayError, match="unknown parallelism mode"):
            engine.backfill("train.py", new_source=workload.hindsight_source(), parallelism=mode)


class TestRecordedRunsOnly:
    """The planner replays recorded runs of the file, not every epoch that holds it."""

    @pytest.fixture()
    def with_spectators(self, free_session):
        """Two real runs of train.py, then two commits from another entry point."""
        workload = VersionedScriptWorkload(versions=2, epochs=2, steps=2)
        vids = workload.record_all_versions(free_session)
        for i in range(2):
            free_session.log("aside", i, filename="notebook.py")
            free_session.commit(f"notebook commit {i}")
        return free_session, workload, vids

    def _counts(self, session):
        return dict(session.db.query("SELECT value_name, COUNT(*) FROM logs GROUP BY value_name"))

    def _tstamps(self, session, name):
        return {r.tstamp for r in session.logs.by_names(session.projid, [name])}

    def test_spectator_commits_are_not_runs(self, with_spectators):
        session, workload, vids = with_spectators
        engine = HindsightEngine(session)
        assert len(session.ts2vid.all(session.projid)) == 4
        assert [vid for vid, _ts in engine.version_epochs("train.py")] == vids

        before, ran = self._counts(session), self._tstamps(session, "loss")
        report = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert len(report.versions) == report.versions_replayed == 2
        assert report.new_records == 2 * workload.epochs * workload.steps
        after = self._counts(session)
        assert self._tstamps(session, "weight") == ran
        assert after.pop("weight") == report.new_records
        assert after == before  # loss / lr / ... untouched: no run was made up

    def test_include_latest_drops_the_newest_run_not_the_newest_epoch(self, with_spectators):
        session, workload, vids = with_spectators
        engine = HindsightEngine(session)
        assert [vid for vid, _ts in engine.version_epochs("train.py", include_latest=False)] == vids[:1]
        report = engine.backfill(
            "train.py", new_source=workload.hindsight_source(), include_latest=False
        )
        assert [v.vid for v in report.versions] == vids[:1]
        assert self._tstamps(session, "weight") == {report.versions[0].tstamp}

    def test_include_latest_is_about_the_file_not_the_selection(self, with_spectators):
        """Per-version calls add up to the unrestricted one, with or without the latest run."""
        session, _workload, vids = with_spectators
        engine = HindsightEngine(session)
        for include_latest in (True, False):
            whole = engine.version_epochs("train.py", include_latest=include_latest)
            parts = [
                run
                for vid in vids
                for run in engine.version_epochs("train.py", [vid], include_latest)
            ]
            assert parts == whole

    def test_a_rerun_of_an_unchanged_version_is_one_run_per_epoch(self, free_session):
        workload = VersionedScriptWorkload(versions=1, epochs=2, steps=2)
        vids = {workload.record_version(free_session, 0) for _ in range(3)}
        assert len(vids) == 1
        engine = HindsightEngine(free_session)
        assert len(engine.version_epochs("train.py")) == 3
        report = engine.backfill(
            "train.py", new_source=workload.hindsight_source(), versions=list(vids)
        )
        assert len(report.versions) == 3
        assert report.new_records == 3 * workload.epochs * workload.steps
        assert free_session.db.query(NO_ROW_TWICE) == []

    def test_replay_runs_the_recorded_source_and_lands_through_the_session(self, with_spectators):
        session, workload, vids = with_spectators
        engine = HindsightEngine(session)
        session.db.execute("DELETE FROM logs WHERE value_name = 'loss'")
        before = session.flusher.stats.transactions
        report = engine.replay("train.py")
        assert [v.vid for v in report.versions] == vids
        assert all(v.injected_statements == 0 and v.propagation is None for v in report.versions)
        assert report.new_records == 2 * workload.epochs * workload.steps
        assert session.flusher.stats.transactions == before + 1
        assert self._counts(session)["loss"] == report.new_records
        assert "weight" not in self._counts(session)


class TestReplayKeyScope:
    """A replay session dedups against its own run's rows, not the project's."""

    @pytest.fixture()
    def four_runs(self, free_session):
        workload = VersionedScriptWorkload(versions=4, epochs=3, steps=2)
        workload.record_all_versions(free_session)
        return free_session, workload

    def test_second_backfill_over_many_runs_adds_no_rows(self, four_runs):
        session, workload = four_runs
        engine = HindsightEngine(session)
        first = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert first.new_records == 4 * workload.epochs * workload.steps
        rows_after_first = session.logs.count()
        second = engine.backfill("train.py", new_source=workload.hindsight_source())
        assert second.versions_replayed == 4
        assert second.new_records == 0
        assert session.logs.count() == rows_after_first

    def test_replay_session_keys_hold_only_its_own_run(self, four_runs):
        session, _workload = four_runs
        session.flush()
        tstamps = session.logs.distinct_tstamps(session.projid)
        assert len(tstamps) == 4
        replay = Session(
            session.config,
            db=session.db,
            mode=REPLAY,
            default_filename="train.py",
            replay_tstamp=tstamps[1],
        )
        keys = replay._existing_log_keys
        assert {key[0] for key in keys} == {tstamps[1]}
        assert len(keys) == len(session.logs.by_tstamp(session.projid, tstamps[1])) > 0


class TestParallelBackfill:
    @pytest.mark.parametrize("mode", ["process"])
    def test_parallel_modes_produce_same_results_as_serial(self, make_session, mode):
        workload = VersionedScriptWorkload(versions=3, epochs=3, steps=2)

        serial_session = make_session("serial")
        workload.record_all_versions(serial_session)
        HindsightEngine(serial_session).backfill(
            "train.py", new_source=workload.hindsight_source(), parallelism="serial"
        )
        serial_weights = sorted(
            round(row["weight"], 9) for row in serial_session.dataframe("weight").to_records()
        )

        parallel_session = make_session(mode)
        workload.record_all_versions(parallel_session)
        report = HindsightEngine(parallel_session).backfill(
            "train.py", new_source=workload.hindsight_source(), parallelism=mode, max_workers=2
        )
        parallel_weights = sorted(
            round(row["weight"], 9) for row in parallel_session.dataframe("weight").to_records()
        )
        assert report.versions_replayed == 3
        assert parallel_weights == serial_weights

    def test_report_summary_fields(self, versioned):
        session, workload, _vids = versioned
        report = HindsightEngine(session).backfill("train.py", new_source=workload.hindsight_source())
        summary = report.summary()
        assert summary["versions"] == 3
        assert summary["new_records"] == report.new_records
        assert summary["wall_seconds"] >= 0


class TestOneLandingPath:
    """Every mode collects its replays and lands them once, through the session."""

    MODES = ["serial", "process"]
    ROWS = (
        "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type FROM logs"
        " ORDER BY tstamp, ctx_id, value_name"
    )

    @pytest.fixture()
    def recorded_copies(self, tmp_path):
        """One recorded project, copied once per mode: same tstamps, same rows."""
        workload = VersionedScriptWorkload(versions=3, epochs=3, steps=2)
        base = Session(ProjectConfig(tmp_path / "base", "shared"))
        workload.record_all_versions(base)
        base.close()
        sessions = {}
        for mode in self.MODES:
            shutil.copytree(tmp_path / "base", tmp_path / mode)
            sessions[mode] = Session(ProjectConfig(tmp_path / mode, "shared"))
        yield workload, sessions
        for session in sessions.values():
            session.close()

    def test_modes_leave_identical_rows(self, recorded_copies):
        workload, sessions = recorded_copies
        rows = {}
        for mode, session in sessions.items():
            before = session.logs.count()
            report = HindsightEngine(session).backfill(
                "train.py", new_source=workload.hindsight_source(), parallelism=mode, max_workers=2
            )
            assert report.versions_replayed == 3
            assert report.new_records == 3 * workload.epochs * workload.steps
            assert session.logs.count() == before + report.new_records  # durable on return
            rows[mode] = session.db.query(self.ROWS)
        assert rows["process"] == rows["serial"]

    @pytest.mark.parametrize("mode", MODES)
    def test_backfill_never_scans_the_projects_logs(self, recorded_copies, monkeypatch, mode):
        """Each replay dedups against its own run; nothing reads the whole table.

        The spies raise, so a scan fails the replay that made it — also
        inside a forked process worker, whose calls the parent cannot count.
        """
        def forbidden(self, *args, **kwargs):
            raise AssertionError("backfill read every log row of the project")

        workload, sessions = recorded_copies
        monkeypatch.setattr(LogRepository, "all", forbidden)
        monkeypatch.setattr(LogRepository, "by_names", forbidden)
        report = HindsightEngine(sessions[mode]).backfill(
            "train.py", new_source=workload.hindsight_source(), parallelism=mode, max_workers=2
        )
        assert [v.replay.error for v in report.versions] == [None, None, None]
        assert report.new_records == 3 * workload.epochs * workload.steps

    def test_one_transaction_per_backfill(self, recorded_copies):
        workload, sessions = recorded_copies
        session = sessions["serial"]
        session.flush()
        before = session.flusher.stats.transactions
        HindsightEngine(session).backfill("train.py", new_source=workload.hindsight_source())
        assert session.flusher.stats.transactions == before + 1

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_replay_lands_nothing_of_its_run(self, recorded_copies, mode):
        """A version whose replay raises lands none of the rows it staged before that."""
        workload, sessions = recorded_copies
        session = sessions[mode]
        source = workload.hindsight_source().replace('flor.log("weight", state["w"])', FAILS_HALF_WAY)
        report = HindsightEngine(session).backfill(
            "train.py", new_source=source, parallelism=mode, max_workers=2
        )
        failed = [v for v in report.versions if not v.ok]
        assert len(failed) == 1 and "half-way" in failed[0].replay.error
        assert report.versions_replayed == 2
        per_run = dict(
            session.db.query("SELECT tstamp, COUNT(*) FROM logs WHERE value_name = 'weight' GROUP BY tstamp")
        )
        assert failed[0].tstamp not in per_run
        assert sorted(per_run.values()) == [workload.epochs * workload.steps] * 2


class TestScriptsThatFlushForThemselves:
    """A replayed ``flor.commit()`` / ``flor.dataframe()`` / ``flor.flush()``
    writes nothing: the engine lands the rows, however the script ends."""

    MODES = ["serial", "process"]
    RUNS, EPOCHS = 2, 3
    SCRIPT = (
        'lr = flor.arg("lr", 0.1)\n'
        'for epoch in flor.loop("epoch", range(3)):\n'
        '    flor.log("loss", lr / (1 + epoch))\n'
    )
    TAILS = {
        "commit": "flor.commit()\n",
        "dataframe": 'seen = len(flor.dataframe("loss"))\nflor.commit()\n',
    }

    def _record(self, session, source):
        session.track("train.py")
        (session.config.root / "train.py").write_text(source)
        for _ in range(self.RUNS):
            with active_session(session):
                exec(compile(source, "train.py", "exec"), {"__file__": "train.py", "flor": flor})
        assert len(session.ts2vid.all(session.projid)) == self.RUNS  # the script's own commits

    def _with_acc(self, source):
        loss = '    flor.log("loss", lr / (1 + epoch))\n'
        return source.replace(loss, loss + '    flor.log("acc", 1 - lr / (1 + epoch))\n')

    @pytest.fixture()
    def replays_cannot_submit(self, monkeypatch):
        """Fail any replay whose session hands its flusher a batch — also in a
        forked process worker, whose flusher the parent cannot inspect."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a replay session wrote for itself")

        class NoWriteSession(Session):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.flusher.submit = forbidden

        monkeypatch.setattr("repro.core.replay.Session", NoWriteSession)

    @pytest.mark.parametrize("tail", sorted(TAILS))
    @pytest.mark.parametrize("mode", MODES)
    def test_backfill_lands_once_through_the_engine(self, free_session, replays_cannot_submit, mode, tail):
        session, source = free_session, self.SCRIPT + self.TAILS[tail]
        self._record(session, source)
        before = session.dataframe("loss", "acc")
        assert [row["acc"] for row in before.to_records()] == [None] * (self.RUNS * self.EPOCHS)
        rows, transactions, fired = session.logs.count(), session.flusher.stats.transactions, []
        session.on_rows_written = fired.append

        report = HindsightEngine(session).backfill(
            "train.py", new_source=self._with_acc(source), parallelism=mode, max_workers=2
        )

        assert [v.replay.error for v in report.versions] == [None] * self.RUNS
        assert report.new_records == session.logs.count() - rows == self.RUNS * self.EPOCHS
        assert session.flusher.stats.transactions == transactions + 1
        assert fired == [self.RUNS * self.EPOCHS]
        after = session.dataframe("loss", "acc")
        assert len(after) == len(before)
        assert None not in [row["acc"] for row in after.to_records()]
        assert len(session.ts2vid.all(session.projid)) == self.RUNS  # replayed commits made no version

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_replay_lands_nothing_even_after_it_flushed(self, free_session, mode):
        source = self.SCRIPT + "flor.flush()\nflor.commit()\n"
        self._record(free_session, source)
        rows = free_session.logs.count()
        broken = self._with_acc(source).replace(
            "flor.flush()\n", 'flor.flush()\nflor.log("x", undefined_name)\n'
        )
        report = HindsightEngine(free_session).backfill(
            "train.py", new_source=broken, parallelism=mode, max_workers=2
        )
        assert ["undefined_name" in v.replay.error for v in report.versions] == [True] * self.RUNS
        assert report.versions_replayed == 0
        assert free_session.logs.count() == rows
