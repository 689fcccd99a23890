"""Tier-1 chaos smoke: a short in-process soak and one real SIGKILL crash.

The full-length soak lives in ``benchmarks/bench_t13_chaos_soak.py``; these
runs are scaled to keep the tier-1 suite fast while still exercising every
moving part — fault-wrapped shards, keyed appends sealed by resending them,
backfill under a skewed lease clock, recovery, and the invariant checkers.
"""

from __future__ import annotations

from urllib.parse import quote

from repro.relational.database import Database
from repro.testing import (
    AckLedger,
    ChaosSoak,
    FaultPlan,
    ServerProcess,
    assert_invariants,
    check_no_lost_rows,
)


class TestMiniSoak:
    def test_invariants_hold_under_mixed_faults(self, tmp_path):
        plan = FaultPlan(
            seed=20260808,
            locked_rate=0.05,
            slow_rate=0.05,
            skew_rate=0.2,
            slow_seconds=0.001,
            max_skew_seconds=10.0,
        )
        soak = ChaosSoak(
            tmp_path / "root",
            plan,
            cycles=1,
            cycle_seconds=0.5,
            agent_tenants=1,
            fanout_tenants=2,
            ingest_threads=1,
            pool_capacity=3,
        )
        report = soak.run()
        assert_invariants(report.violations, plan)
        assert report.cycles == 1
        assert report.requests > 0
        assert report.sealed_rows > 0
        # Faults actually fired; this was not a fair-weather pass.
        assert sum(report.fault_stats["checked"].values()) > 0

    def test_soak_without_faults_never_resubmits(self, tmp_path):
        plan = FaultPlan(seed=5)
        soak = ChaosSoak(
            tmp_path / "root",
            plan,
            cycles=1,
            cycle_seconds=0.3,
            agent_tenants=1,
            fanout_tenants=1,
            ingest_threads=1,
            backfill=False,
            pool_capacity=2,
        )
        report = soak.run()
        assert_invariants(report.violations, plan)
        assert report.resubmitted_batches == 0
        assert report.request_errors == 0
        assert report.sealed_rows > 0


def _metrics(values: list[str]) -> dict:
    return {
        "filename": "train.py",
        "records": [{"name": "metric", "value": value, "ctx_id": 0} for value in values],
    }


def _stored_values(server: ServerProcess, project: str) -> set[str]:
    query = quote("SELECT value FROM logs WHERE value_name = 'metric'")
    body = server.get(f"/projects/{project}/sql?q={query}")
    return {str(record["value"]) for record in body["records"]}


class TestSigkillRecovery:
    def test_keyed_rows_are_stored_exactly_once_across_a_kill9(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        ledger = AckLedger()
        project = "alpha"
        barrier = f"/projects/{project}/dataframe?names=metric"
        with ServerProcess(root) as server:
            for batch in range(3):
                ledger.post(server.client, project, _metrics([f"b{batch}.r{r}" for r in range(4)]))
            assert ledger.seal(server.client, project, barrier) == 0
            # Sent but never sealed: the crash may legitimately eat it.
            ledger.post(server.client, project, _metrics(["unsealed.0"]))
            server.kill9(barrier="after_seal")
            assert not server.alive()

        with ServerProcess(root) as restarted:
            recovery = restarted.wait_healthy(projects=(project,))
            sealed = ledger.sealed_values(project, "metric")
            stored = _stored_values(restarted, project)
            assert sealed <= stored, f"lost after kill9: {sorted(sealed - stored)}"
            # Settle: the unsealed batch is resent under its key and lands
            # once, whether or not it survived the kill.
            assert ledger.seal(restarted.client, project, barrier, rounds=3) == 0
            with Database(root / project / ".flor" / "flor.db") as db:
                assert_invariants(check_no_lost_rows(db, ledger, project))
            assert recovery < 30.0
            restarted.terminate()

    def test_kill_at_barrier_names_the_crash_site(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        with ServerProcess(root) as server:
            server.post("/projects/alpha/logs", _metrics(["x"]))
            server.kill_at(
                "first_row_visible",
                lambda: "x" in _stored_values(server, "alpha"),
                timeout=20.0,
            )
            assert server.killed_at == "first_row_visible"
            assert not server.alive()
        with ServerProcess(root) as restarted:
            restarted.wait_healthy(projects=("alpha",))
            # The row was visible to a reader pre-kill, hence durable.
            assert "x" in _stored_values(restarted, "alpha")
            restarted.terminate()
