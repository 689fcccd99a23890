"""Tests for the job executor and worker pool, including crash recovery."""

from __future__ import annotations

import pytest

from repro import ProjectConfig, Session
from repro.jobs import (
    JobCancelled,
    JobInterrupted,
    JobRunner,
    JobStore,
    directory_session_provider,
    execute_job,
)
from repro.testing import ManualClock
from repro.workloads import BackfillJobWorkload

WORKLOAD = BackfillJobWorkload(projects=1, versions=3, epochs=3, steps=2)


@pytest.fixture()
def populated_root(tmp_path):
    """A service root holding one tenant with three committed versions."""
    root = tmp_path / "root"
    vids = WORKLOAD.populate(root)
    return root, vids[WORKLOAD.project_names()[0]]


@pytest.fixture()
def store(populated_root):
    root, _ = populated_root
    with JobStore.open(root, lease_seconds=5.0, retry_backoff=0.01) as s:
        yield s


def _open_sessions(root):
    return directory_session_provider(root)


def _weight_rows(root) -> int:
    name = WORKLOAD.project_names()[0]
    with Session(ProjectConfig(root / name, name)) as session:
        return len(session.dataframe("weight"))


class TestExecutor:
    def test_backfill_job_materializes_the_missing_column(self, populated_root, store):
        root, vids = populated_root
        job_id = WORKLOAD.submit_all(store)[0]
        claimed = store.claim("w1")
        store.mark_running(job_id, "w1")
        summary = execute_job(claimed, store, _open_sessions(root), worker="w1")
        assert summary["versions_total"] == len(vids)
        assert summary["versions_replayed"] == len(vids)
        assert summary["new_records"] == WORKLOAD.expected_new_records
        assert store.completed_versions(job_id) == set(vids)
        assert _weight_rows(root) == WORKLOAD.expected_new_records

    def test_missing_filename_payload_is_a_job_error(self, populated_root, store):
        root, _ = populated_root
        from repro.errors import JobError

        job = store.submit(WORKLOAD.project_names()[0], "backfill", {})
        claimed = store.claim("w1")
        with pytest.raises(JobError):
            execute_job(claimed, store, _open_sessions(root), worker="w1")

    def test_should_stop_interrupts_between_versions(self, populated_root, store):
        root, vids = populated_root
        job_id = WORKLOAD.submit_all(store)[0]
        claimed = store.claim("w1")
        store.mark_running(job_id, "w1")
        calls = {"n": 0}

        def stop_after_one() -> bool:
            calls["n"] += 1
            return calls["n"] > 1

        with pytest.raises(JobInterrupted):
            execute_job(
                claimed, store, _open_sessions(root), worker="w1", should_stop=stop_after_one
            )
        assert len(store.completed_versions(job_id)) == 1

    def test_cancel_request_stops_the_job_at_a_version_boundary(self, populated_root, store):
        root, _ = populated_root
        job_id = WORKLOAD.submit_all(store)[0]
        claimed = store.claim("w1")
        store.mark_running(job_id, "w1")
        store.cancel(job_id)  # running: flags cancel_requested
        with pytest.raises(JobCancelled):
            execute_job(claimed, store, _open_sessions(root), worker="w1")

    def test_replay_kind_reexecutes_without_propagation(self, populated_root, store):
        root, vids = populated_root
        name = WORKLOAD.project_names()[0]
        job = store.submit(name, "replay", {"filename": WORKLOAD.filename})
        claimed = store.claim("w1")
        store.mark_running(job.id, "w1")
        summary = execute_job(claimed, store, _open_sessions(root), worker="w1")
        assert summary["versions_replayed"] == len(vids)
        # Replaying the recorded source is idempotent: values already exist.
        assert summary["new_records"] == 0
        assert _weight_rows(root) == 0  # no propagation happened


class TestRerunsOfOneVersion:
    """Jobs replay what inline ``backfill()`` replays: every recorded run of a version."""

    SCRIPT = WORKLOAD.script_workload()
    RUN_ROWS = WORKLOAD.epochs * WORKLOAD.steps  #: ``weight`` rows one run gains
    NO_ROW_TWICE = (
        "SELECT projid, tstamp, filename, ctx_id, value_name, COUNT(*) FROM logs"
        " GROUP BY projid, tstamp, filename, ctx_id, value_name HAVING COUNT(*) > 1"
    )

    def _record(self, root, runs):
        """Run and commit ``train.py`` once per entry of ``runs`` (a source version each)."""
        name = WORKLOAD.project_names()[0]
        with Session(ProjectConfig(root / name, name)) as session:
            return [self.SCRIPT.record_version(session, version) for version in runs]

    def _rows(self, root):
        name = WORKLOAD.project_names()[0]
        with Session(ProjectConfig(root / name, name)) as session:
            assert session.db.query(self.NO_ROW_TWICE) == []
            return len(session.logs.by_names(session.projid, ["weight"]))

    def test_job_and_inline_backfill_both_cover_every_rerun(self, tmp_path):
        expected = 3 * self.RUN_ROWS
        (vid,) = set(self._record(tmp_path / "inline", [0, 0, 0]))
        assert WORKLOAD.backfill_inline(tmp_path / "inline") == expected
        assert self._rows(tmp_path / "inline") == expected

        root = tmp_path / "jobs"
        assert set(self._record(root, [0, 0, 0])) == {vid}
        with JobStore.open(root) as store:
            job_id = WORKLOAD.submit_all(store)[0]
            claimed = store.claim("w1")
            store.mark_running(job_id, "w1")
            summary = execute_job(claimed, store, _open_sessions(root), worker="w1")
            assert summary["versions_total"] == summary["versions_replayed"] == 1
            assert summary["new_records"] == expected
            assert store.completed_versions(job_id) == {vid}
            (event,) = [e for e in store.events(job_id) if e.kind == "version"]
            assert event.payload["runs"] == 3 and event.payload["new_records"] == expected
        assert self._rows(root) == expected

    def test_inline_backfill_of_one_version_covers_its_reruns(self, tmp_path):
        from repro import HindsightEngine

        (vid,) = set(self._record(tmp_path, [0, 0, 0]))
        name = WORKLOAD.project_names()[0]
        with Session(ProjectConfig(tmp_path / name, name)) as session:
            report = HindsightEngine(session).backfill(
                WORKLOAD.filename, new_source=WORKLOAD.hindsight_source(), versions=[vid]
            )
            assert len(report.versions) == 3
            assert report.new_records == 3 * self.RUN_ROWS
        assert self._rows(tmp_path) == 3 * self.RUN_ROWS

    def test_interrupted_then_resumed_job_writes_no_row_twice(self, tmp_path):
        """Version 0 runs three times, version 1 once; the job stops after
        its first vid and a second attempt finishes the rest."""
        root = tmp_path / "root"
        first, *_, other = vids = self._record(root, [0, 0, 0, 1])
        assert vids == [first, first, first, other]
        with JobStore.open(root) as store:
            job_id = WORKLOAD.submit_all(store)[0]
            claimed = store.claim("w1")
            store.mark_running(job_id, "w1")
            calls = iter([False, True])
            with pytest.raises(JobInterrupted):
                execute_job(
                    claimed, store, _open_sessions(root), worker="w1",
                    should_stop=lambda: next(calls),
                )
            assert store.completed_versions(job_id) == {first}
            assert self._rows(root) == 3 * self.RUN_ROWS  # all runs of the first vid
            assert store.release(job_id, "w1", reason="shutdown")

            claimed = store.claim("w2")
            store.mark_running(job_id, "w2")
            summary = execute_job(claimed, store, _open_sessions(root), worker="w2")
            assert summary["versions_total"] == 2
            assert summary["versions_checkpointed"] == summary["versions_replayed"] == 1
            assert summary["new_records"] == self.RUN_ROWS
            assert store.completed_versions(job_id) == {first, other}
            assert [e.kind for e in store.events(job_id)].count("version") == 2
        assert self._rows(root) == 4 * self.RUN_ROWS


class TestRunner:
    def test_runner_drains_a_submitted_job_to_succeeded(self, populated_root, store):
        root, _ = populated_root
        job_id = WORKLOAD.submit_all(store)[0]
        runner = JobRunner(store, _open_sessions(root), workers=2, poll_interval=0.01)
        assert runner.run_until_idle(timeout=60.0)
        job = store.require(job_id)
        assert job.state == "succeeded"
        assert job.result["new_records"] == WORKLOAD.expected_new_records
        assert runner.stats.succeeded == 1
        assert _weight_rows(root) == WORKLOAD.expected_new_records

    def test_poison_job_fails_after_its_retry_budget(self, populated_root, store):
        root, _ = populated_root
        name = WORKLOAD.project_names()[0]
        # ghost.py has no committed versions and no working copy: the
        # executor raises before any version replays.
        job = store.submit(name, "backfill", {"filename": "ghost.py"}, max_attempts=2)
        runner = JobRunner(store, _open_sessions(root), workers=1, poll_interval=0.01)
        assert runner.run_until_idle(timeout=60.0)
        final = store.require(job.id)
        assert final.state == "failed"
        assert final.attempts == 2
        assert "ghost.py" in final.error
        kinds = [e.kind for e in store.events(job.id)]
        assert kinds.count("retry_scheduled") == 1
        assert kinds.count("failed") == 1

    def test_crash_and_resume_replays_only_unfinished_versions(self, populated_root):
        """Acceptance criterion: a restarted runner reclaims the lease and
        re-replays only versions without a recorded progress checkpoint."""
        root, vids = populated_root
        crash_after = 1
        clock = ManualClock()
        store = JobStore.open(root, lease_seconds=30.0, clock=clock)
        try:
            job_id = WORKLOAD.submit_all(store)[0]
            claimed = store.claim("doomed")
            store.mark_running(job_id, "doomed")
            calls = {"n": 0}

            def die_after_k() -> bool:
                calls["n"] += 1
                return calls["n"] > crash_after

            with pytest.raises(JobInterrupted):
                execute_job(
                    claimed, store, _open_sessions(root), worker="doomed", should_stop=die_after_k
                )
            # The worker "dies" here: no release, no fail — the lease just
            # stops being renewed, and the first checkpoint is durable.
            assert store.completed_versions(job_id) == {vids[0]}
            clock.advance(31.0)  # lease lapses without any real waiting

            runner = JobRunner(
                store, _open_sessions(root), workers=1, lease_seconds=10.0, poll_interval=0.01
            )
            assert runner.run_until_idle(timeout=60.0)
            job = store.require(job_id)
            assert job.state == "succeeded"
            assert job.result["versions_checkpointed"] == crash_after
            assert job.result["versions_replayed"] == len(vids) - crash_after

            kinds = [e.kind for e in store.events(job_id)]
            assert kinds.count("lease_reclaimed") == 1
            assert kinds.count("version") == len(vids)
        finally:
            store.close()
        # The backfilled column is complete despite the crash (no dupes,
        # no gaps): exactly one weight row per epoch x step x version.
        assert _weight_rows(root) == WORKLOAD.expected_new_records

    def test_graceful_stop_releases_inflight_work_without_burning_budget(
        self, populated_root, store
    ):
        root, _ = populated_root
        job_id = WORKLOAD.submit_all(store)[0]
        claimed = store.claim("w1")
        store.mark_running(job_id, "w1")
        with pytest.raises(JobInterrupted):
            execute_job(
                claimed, store, _open_sessions(root), worker="w1", should_stop=lambda: True
            )
        # What the runner does with JobInterrupted on shutdown:
        assert store.release(job_id, "w1", reason="shutdown") is True
        after = store.require(job_id)
        assert after.state == "queued"
        assert after.attempts == 0

    def test_runner_start_stop_lifecycle(self, populated_root, store):
        root, _ = populated_root
        runner = JobRunner(store, _open_sessions(root), workers=1, poll_interval=0.01)
        runner.start()
        assert runner.running
        runner.start()  # idempotent
        runner.stop(wait=True)
        assert not runner.running
        assert runner.active_jobs() == []


class TestSessionProviders:
    def test_directory_provider_rejects_unknown_projects(self, tmp_path):
        """A typo'd tenant must fail loudly, not succeed over a fresh empty
        project materialized as a side effect."""
        from repro.errors import JobError

        provider = directory_session_provider(tmp_path)
        with pytest.raises(JobError, match="unknown project"):
            with provider("no-such-tenant"):
                pass
        assert not (tmp_path / "no-such-tenant").exists()

    def test_job_for_unknown_project_fails_instead_of_noop_success(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        with JobStore.open(root, retry_backoff=0.01) as store:
            job = store.submit("typo", "backfill", {"filename": "train.py"}, max_attempts=1)
            runner = JobRunner(
                store, directory_session_provider(root), workers=1, poll_interval=0.01
            )
            assert runner.run_until_idle(timeout=30.0)
            final = store.require(job.id)
            assert final.state == "failed"
            assert "unknown project" in final.error
