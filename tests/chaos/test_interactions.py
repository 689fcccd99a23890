"""Cross-feature crash tests: faults landing where two subsystems meet.

Single-subsystem chaos is covered by the harness tests and the soak; these
scenarios aim at the seams the issue calls out — the version journal's
compaction racing a lease reclaim mid-backfill, and the background
flusher's backlog riding through a pool eviction.
"""

from __future__ import annotations

import json

import pytest

from repro import ProjectConfig, Session
from repro.jobs import (
    JobInterrupted,
    JobRunner,
    JobStore,
    directory_session_provider,
    execute_job,
)
from repro.relational.database import Database
from repro.service import FlorService
from repro.testing import (
    AckLedger,
    FaultPlan,
    ManualClock,
    assert_invariants,
    check_no_lost_rows,
    check_single_replay,
    chaos_shard_factory,
)
from repro.testing.soak import AGENT_NAMES
from repro.versioning.repository import Repository
from repro.webapp.framework import TestClient
from repro.workloads import AgentSessionWorkload, BackfillJobWorkload

WORKLOAD = BackfillJobWorkload(projects=1, versions=3, epochs=2, steps=1)


class TestCompactionVersusLeaseReclaim:
    def test_reclaimed_backfill_stays_exactly_once_across_compaction(
        self, tmp_path, monkeypatch
    ):
        """Journal compaction between a crash and its lease reclaim must not
        confuse the resumed backfill: checkpoints are honoured (no version
        replays twice) and the compacted history stays complete."""
        monkeypatch.setattr(Repository, "COMPACT_EVERY", 2)
        root = tmp_path / "root"
        vids = WORKLOAD.populate(root)[WORKLOAD.project_names()[0]]
        name = WORKLOAD.project_names()[0]
        clock = ManualClock()
        with JobStore.open(root, lease_seconds=30.0, clock=clock) as store:
            job_id = WORKLOAD.submit_all(store)[0]
            claimed = store.claim("doomed")
            store.mark_running(job_id, "doomed")
            calls = {"n": 0}

            def die_after_one() -> bool:
                calls["n"] += 1
                return calls["n"] > 1

            with pytest.raises(JobInterrupted):
                execute_job(
                    claimed,
                    store,
                    directory_session_provider(root),
                    worker="doomed",
                    should_stop=die_after_one,
                )
            assert store.completed_versions(job_id) == {vids[0]}

            # While the dead worker's lease runs down, the tenant keeps
            # committing — enough to fold the journal into its snapshot.
            with Session(ProjectConfig(root / name, name)) as session:
                for round_ in range(3):
                    session.log("aside", round_)
                    session.commit(f"racing commit {round_}")
                more_vids = [c.vid for c in session.repository.log()]
            snapshot = json.loads(
                (ProjectConfig(root / name, name).objects_dir / "commits.json").read_text()
            )
            assert len(snapshot["commits"]) >= 2  # compaction folded mid-race

            clock.advance(31.0)  # lease lapses; no wall-clock sleep
            runner = JobRunner(
                store,
                directory_session_provider(root),
                workers=1,
                poll_interval=0.01,
            )
            assert runner.run_until_idle(timeout=60.0)
            job = store.require(job_id)
            assert job.state == "succeeded"
            kinds = [e.kind for e in store.events(job_id)]
            assert kinds.count("lease_reclaimed") == 1
            # Exactly-once across the reclaim: one checkpoint per original
            # version, none for the spectator commits.
            assert_invariants(check_single_replay(store.db))
            assert store.completed_versions(job_id) == set(vids)
            assert set(vids) <= set(more_vids)

        # Post-compaction history is still fully readable.
        with Session(ProjectConfig(root / name, name)) as session:
            log = session.repository.log()
            assert [c.vid for c in log[: len(vids)]] == vids
            assert len(session.dataframe("weight")) == WORKLOAD.expected_new_records


class TestBackpressureVersusEviction:
    def test_eviction_of_a_backlogged_shard_loses_no_acked_rows(self, tmp_path):
        """A capacity-1 pool thrashes shards while every write stalls; the
        eviction path must flush the backlog, not orphan it."""
        root = tmp_path / "root"
        plan = FaultPlan(seed=4242, slow_rate=0.0, slow_seconds=0.002)
        # Force a stall on every flush transaction of the busy tenant so
        # its flusher is mid-backlog whenever the other tenant evicts it.
        plan.force("slow", "shard.busy.db.transaction", times=10_000)
        service = FlorService(
            root,
            pool_capacity=1,
            flush_size=8,
            flush_interval=None,
            shard_factory=chaos_shard_factory(root, plan),
        )
        client = TestClient(service.app())
        ledger = AckLedger()
        workload = AgentSessionWorkload(sessions=4, turns_per_session=3, tag="bp")
        try:
            for index, payload in enumerate(workload.request_payloads()):
                # Alternate tenants: every other request evicts the one
                # whose flusher is still stalling through its backlog.
                project = "busy" if index % 2 == 0 else "bystander"
                assert ledger.post(client, project, payload).status == 202
            assert service.pool.stats.evictions > 4
            for project in ("busy", "bystander"):
                barrier = f"/projects/{project}/dataframe?names={AGENT_NAMES}"
                assert ledger.seal(client, project, barrier) == 0
        finally:
            service.close()

        # Recovery read on the raw files: everything sent is on disk, once.
        violations = []
        for project in ("busy", "bystander"):
            db = Database(ProjectConfig(root / project, project).db_path)
            try:
                violations += check_no_lost_rows(db, ledger, project)
            finally:
                db.close()
        assert_invariants(violations, plan)
