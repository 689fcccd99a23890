"""Tests for the durable job store: state machine, leases, retries, events."""

from __future__ import annotations

import pytest

from repro.errors import JobError, JobNotFoundError
from repro.jobs import JobStore
from repro.jobs.store import JOBS_DB_FILENAME
from repro.relational.database import Database
from repro.testing import ManualClock


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def store(clock):
    with JobStore(Database(":memory:"), lease_seconds=10.0, retry_backoff=1.0, clock=clock) as s:
        yield s


class TestSubmission:
    def test_submit_returns_durable_queued_row(self, store, clock):
        job = store.submit("alpha", "backfill", {"filename": "train.py"}, priority=3)
        assert job.state == "queued"
        assert job.project == "alpha"
        assert job.kind == "backfill"
        assert job.payload == {"filename": "train.py"}
        assert job.priority == 3
        assert job.attempts == 0
        assert job.created_at == clock.now
        assert store.require(job.id).state == "queued"

    def test_submit_rejects_nonpositive_attempt_budget(self, store):
        with pytest.raises(JobError):
            store.submit("alpha", "backfill", {}, max_attempts=0)

    def test_open_creates_dotfile_outside_tenant_namespace(self, tmp_path):
        store = JobStore.open(tmp_path)
        try:
            store.submit("alpha", "backfill", {})
            assert (tmp_path / JOBS_DB_FILENAME).exists()
        finally:
            store.close()

    def test_require_unknown_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.require(999)
        assert store.get(999) is None


class TestClaiming:
    def test_claim_takes_ownership_and_counts_the_attempt(self, store, clock):
        job = store.submit("alpha", "backfill", {})
        claimed = store.claim("w1")
        assert claimed is not None and claimed.id == job.id
        assert claimed.state == "leased"
        assert claimed.lease_owner == "w1"
        assert claimed.lease_expires == clock.now + 10.0
        assert claimed.attempts == 1
        assert store.claim("w2") is None  # nothing else queued

    def test_claim_prefers_higher_priority_then_fifo(self, store):
        low = store.submit("alpha", "backfill", {}, priority=0)
        high = store.submit("alpha", "backfill", {}, priority=5)
        low2 = store.submit("alpha", "backfill", {}, priority=0)
        assert store.claim("w").id == high.id
        assert store.claim("w").id == low.id
        assert store.claim("w").id == low2.id

    def test_claim_respects_retry_backoff(self, store, clock):
        job = store.submit("alpha", "backfill", {}, max_attempts=2)
        store.claim("w1")
        store.mark_running(job.id, "w1")
        after = store.fail(job.id, "w1", "boom")
        assert after.state == "queued"
        assert store.claim("w1") is None  # not_before is in the future
        clock.advance(1.5)
        assert store.claim("w1").id == job.id

    def test_claim_skips_cancel_requested_rows(self, store):
        job = store.submit("alpha", "backfill", {})
        store.cancel(job.id)
        assert store.claim("w") is None


class TestLeaseAndHeartbeat:
    def test_heartbeat_renews_only_for_the_owner(self, store, clock):
        job = store.submit("alpha", "backfill", {})
        store.claim("w1")
        clock.advance(5.0)
        fresh = store.heartbeat(job.id, "w1")
        assert fresh is not None
        assert fresh.lease_expires == clock.now + 10.0
        assert store.heartbeat(job.id, "intruder") is None

    def test_expired_lease_is_reclaimed_to_queued(self, store, clock):
        job = store.submit("alpha", "backfill", {}, max_attempts=3)
        store.claim("w1")
        store.mark_running(job.id, "w1")
        clock.advance(11.0)  # worker died: lease lapsed
        reclaimed = store.claim("w2")
        assert reclaimed is not None and reclaimed.id == job.id
        assert reclaimed.lease_owner == "w2"
        assert reclaimed.attempts == 2
        kinds = [e.kind for e in store.events(job.id)]
        assert "lease_reclaimed" in kinds

    def test_expired_lease_with_spent_budget_fails_terminally(self, store, clock):
        job = store.submit("alpha", "backfill", {}, max_attempts=1)
        store.claim("w1")
        clock.advance(11.0)
        assert store.claim("w2") is None  # reclaimed straight to failed
        final = store.require(job.id)
        assert final.state == "failed"
        assert "lease expired" in final.error

    def test_finish_requires_ownership(self, store):
        job = store.submit("alpha", "backfill", {})
        store.claim("w1")
        assert store.finish(job.id, "other") is False
        assert store.finish(job.id, "w1", {"n": 1}) is True
        final = store.require(job.id)
        assert final.state == "succeeded"
        assert final.result == {"n": 1}
        assert final.terminal


class TestRetries:
    def test_fail_requeues_with_exponential_backoff_then_fails(self, store, clock):
        job = store.submit("alpha", "backfill", {}, max_attempts=3)
        delays = []
        for _ in range(2):
            clock.advance(100.0)
            claimed = store.claim("w")
            assert claimed is not None
            after = store.fail(job.id, "w", "boom")
            assert after.state == "queued"
            delays.append(after.not_before - clock.now)
        assert delays == [1.0, 2.0]  # retry_backoff * 2**(attempts-1)
        clock.advance(100.0)
        store.claim("w")
        final = store.fail(job.id, "w", "boom again")
        assert final.state == "failed"
        assert final.error == "boom again"

    def test_release_refunds_the_attempt(self, store, clock):
        job = store.submit("alpha", "backfill", {}, max_attempts=1)
        store.claim("w1")
        assert store.release(job.id, "w1", reason="shutdown") is True
        after = store.require(job.id)
        assert after.state == "queued"
        assert after.attempts == 0  # graceful hand-off does not burn budget
        assert store.claim("w2").id == job.id

    def test_retry_resets_a_terminal_job(self, store):
        job = store.submit("alpha", "backfill", {}, max_attempts=1)
        store.claim("w")
        store.fail(job.id, "w", "boom")
        retried = store.retry(job.id)
        assert retried.state == "queued"
        assert retried.attempts == 0
        assert retried.error is None

    def test_retry_rejects_non_terminal_jobs(self, store):
        job = store.submit("alpha", "backfill", {})
        with pytest.raises(JobError):
            store.retry(job.id)


class TestCancellation:
    def test_cancel_queued_is_immediate(self, store):
        job = store.submit("alpha", "backfill", {})
        cancelled = store.cancel(job.id)
        assert cancelled.state == "cancelled"
        assert cancelled.terminal

    def test_cancel_running_sets_the_flag_for_the_worker(self, store):
        job = store.submit("alpha", "backfill", {})
        store.claim("w1")
        store.mark_running(job.id, "w1")
        flagged = store.cancel(job.id)
        assert flagged.state == "running"  # still owned by the worker
        assert flagged.cancel_requested
        assert store.mark_cancelled(job.id, "w1") is True
        assert store.require(job.id).state == "cancelled"

    def test_cancel_terminal_job_is_a_noop(self, store):
        job = store.submit("alpha", "backfill", {})
        store.claim("w")
        store.finish(job.id, "w")
        assert store.cancel(job.id).state == "succeeded"

    def test_cancel_unknown_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.cancel(12345)


class TestEventsAndProgress:
    def test_lifecycle_appends_an_auditable_trail(self, store):
        job = store.submit("alpha", "backfill", {})
        store.claim("w1")
        store.mark_running(job.id, "w1")
        store.finish(job.id, "w1", {"ok": True})
        kinds = [e.kind for e in store.events(job.id)]
        assert kinds == ["submitted", "leased", "running", "succeeded"]

    def test_events_after_seq_is_incremental(self, store):
        job = store.submit("alpha", "backfill", {})
        first = store.events(job.id)
        assert len(first) == 1
        store.record_event(job.id, "custom", {"k": "v"})
        later = store.events(job.id, after=first[-1].seq)
        assert [e.kind for e in later] == ["custom"]
        assert later[0].payload == {"k": "v"}

    def test_version_checkpoints_drive_completed_versions(self, store):
        job = store.submit("alpha", "backfill", {})
        store.checkpoint_version(job.id, "v1", detail={"new_records": 4})
        store.checkpoint_version(job.id, "v2")
        # A failed version event must NOT count as completed.
        store.record_event(job.id, "version", {"vid": "v3", "ok": False, "error": "x"})
        assert store.completed_versions(job.id) == {"v1", "v2"}


class TestIntrospection:
    def test_counts_groups_by_state(self, store):
        a = store.submit("alpha", "backfill", {})
        store.submit("beta", "backfill", {})
        store.claim("w")
        store.finish(a.id, "w")
        counts = store.counts()
        assert counts["succeeded"] == 1
        assert counts["queued"] == 1
        assert counts["failed"] == 0

    def test_list_jobs_filters_by_project_and_state(self, store):
        a = store.submit("alpha", "backfill", {})
        b = store.submit("beta", "replay", {})
        assert [j.id for j in store.list_jobs()] == [b.id, a.id]  # newest first
        assert [j.id for j in store.list_jobs(project="alpha")] == [a.id]
        assert [j.id for j in store.list_jobs(state="queued", limit=1)] == [b.id]
        with pytest.raises(JobError):
            store.list_jobs(state="nope")

    def test_cross_handle_visibility(self, tmp_path, clock):
        """Two stores on the same file see each other's writes (two processes)."""
        first = JobStore.open(tmp_path, clock=clock)
        second = JobStore.open(tmp_path, clock=clock)
        try:
            job = first.submit("alpha", "backfill", {})
            claimed = second.claim("other-process")
            assert claimed is not None and claimed.id == job.id
            assert first.require(job.id).state == "leased"
        finally:
            first.close()
            second.close()


class TestCancelRaces:
    """Regressions for cancel interleaving with failures, releases and claims."""

    def test_requeued_job_with_pending_cancel_is_swept_to_cancelled(self, store, clock):
        """fail() after a cancel request must not strand the job as an
        unclaimable queued zombie — the next claim honors the cancel."""
        job = store.submit("alpha", "backfill", {}, max_attempts=3)
        store.claim("w1")
        store.mark_running(job.id, "w1")
        store.cancel(job.id)  # running: flag only
        # The version replay raises before the next boundary: fail re-queues.
        assert store.fail(job.id, "w1", "boom").state == "queued"
        clock.advance(100.0)
        assert store.claim("w2") is None  # sweep, then nothing claimable
        final = store.require(job.id)
        assert final.state == "cancelled"
        assert final.terminal
        counts = store.counts()
        assert counts["queued"] == 0  # drain loops can go idle

    def test_released_job_with_pending_cancel_is_swept_to_cancelled(self, store, clock):
        job = store.submit("alpha", "backfill", {})
        store.claim("w1")
        store.cancel(job.id)
        assert store.release(job.id, "w1", reason="shutdown") is True
        clock.advance(1.0)
        assert store.claim("w2") is None
        assert store.require(job.id).state == "cancelled"

    def test_cancel_losing_the_claim_race_does_not_fake_a_cancelled_event(self, store):
        """A cancel that arrives after a worker claimed the job must set the
        flag — and must not append a terminal 'cancelled' event."""
        job = store.submit("alpha", "backfill", {})
        store.claim("w1")  # the race: claimed before cancel's update runs
        flagged = store.cancel(job.id)
        assert flagged.state == "leased"
        assert flagged.cancel_requested
        kinds = [e.kind for e in store.events(job.id)]
        assert "cancelled" not in kinds
        assert "cancel_requested" in kinds


class TestWeightedFairClaiming:
    def test_every_fair_share_th_claim_takes_the_fifo_head(self, store):
        # FAIR_SHARE is 4: claims 4, 8, 12 …
        # go to the global FIFO head instead of the best priority.
        old_low = store.submit("batch", "backfill", {}, priority=-100)
        high = [store.submit("vip", "backfill", {}, priority=100) for _ in range(6)]
        claimed = [store.claim("w").id for _ in range(7)]
        # Claims 1-3 drain high-priority work; claim 4 is the fair turn and
        # picks the oldest queued job — the starved low-priority one.
        assert claimed[:3] == [j.id for j in high[:3]]
        assert claimed[3] == old_low.id
        assert claimed[4:] == [j.id for j in high[3:]]

    def test_fair_turn_is_a_noop_when_fifo_head_is_highest_priority(self, store):
        jobs = [store.submit("vip", "backfill", {}, priority=100) for _ in range(5)]
        assert [store.claim("w").id for _ in range(5)] == [j.id for j in jobs]
