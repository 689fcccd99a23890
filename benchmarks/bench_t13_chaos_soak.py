"""T13 — Chaos soak: mixed traffic under continuous faults, invariant-checked.

Two measurements of the durability story end to end:

* **In-process soak** — :class:`repro.testing.ChaosSoak` storms a
  :class:`FlorService` built over fault-wrapped stores (``database is
  locked`` contention, slow I/O, a skewed job-lease clock) with the
  scenario zoo: agent-session traces, multi-project fan-out and a
  hindsight backfill draining on an embedded runner.  Every cycle ends in
  a close/reopen recovery whose invariants are asserted **at every
  scale**: each value sent stored exactly once, monotone ``logs.seq``
  watermarks, zero double-replayed job versions, recovery under the bound.  The soak is
  seeded; a red run prints ``REPRO_CHAOS_SEED=<n>`` for exact replay.
* **SIGKILL recovery** — a real ``repro serve --job-workers`` subprocess
  is killed with SIGKILL at named barriers while a ledger-keeping client
  sends every batch under an ``Idempotency-Key`` and seals with
  :meth:`~repro.testing.AckLedger.seal` (a barrier read, then every
  unsealed batch resent under its key).  After each kill the restarted
  server answers a resend of a batch it committed with ``200`` and stages
  a lost one again.  Asserted at every scale: no sealed row is ever lost,
  and once settled every batch sent is stored exactly once.  At full
  scale: mean kill-to-healthy recovery stays under the bound.

Perf assertions fire at full scale only (T5/T9/T10's convention); CI's
chaos-smoke job records the smoke-scale trajectory in ``BENCH_*.json``.
"""

from __future__ import annotations

import os
import time
from urllib.parse import quote

import pytest
from conftest import report

from repro.relational.database import Database
from repro.testing import (
    SEED_ENV_VAR,
    AckLedger,
    ChaosSoak,
    FaultPlan,
    ServerProcess,
    assert_invariants,
    check_no_lost_rows,
)

#: Deterministic by default; export REPRO_CHAOS_SEED to replay a red run's
#: exact fault schedule (the seed every failure message prints).
SOAK_SEED = int(os.environ.get(SEED_ENV_VAR) or 20260807)

SOAK_SCALES = {
    "smoke": {
        "cycles": 1,
        "cycle_seconds": 0.6,
        "agent_tenants": 1,
        "fanout_tenants": 2,
        "ingest_threads": 1,
        "pool_capacity": 3,
    },
    "full": {
        "cycles": 3,
        "cycle_seconds": 2.0,
        "agent_tenants": 2,
        "fanout_tenants": 3,
        "ingest_threads": 2,
        "pool_capacity": 4,
    },
}

KILL_SCALES = {"smoke": 2, "full": 4}  # SIGKILL rounds
KILL_BATCHES = 6  # batches posted per round
KILL_BATCH_ROWS = 5
RECOVERY_BOUND_SECONDS = 30.0


# ------------------------------------------------------------ in-process soak
@pytest.mark.parametrize("scale", sorted(SOAK_SCALES))
def test_soak_invariants_hold_under_continuous_faults(benchmark, tmp_path, scale):
    plan = FaultPlan(
        seed=SOAK_SEED,
        locked_rate=0.08,
        slow_rate=0.05,
        skew_rate=0.2,
        slow_seconds=0.002,
        max_skew_seconds=15.0,
    )
    soak = ChaosSoak(
        tmp_path / "root",
        plan,
        recovery_bound_seconds=RECOVERY_BOUND_SECONDS,
        **SOAK_SCALES[scale],
    )
    soak_report = benchmark.pedantic(soak.run, rounds=1, iterations=1)
    report(f"T13: chaos soak, {scale} scale ({plan.describe()})", soak_report.as_rows())
    # Correctness is scale-independent: the invariants hold even in smoke.
    assert_invariants(soak_report.violations, plan)
    assert soak_report.cycles == SOAK_SCALES[scale]["cycles"]
    assert soak_report.sealed_rows > 0
    assert sum(soak_report.fault_stats["checked"].values()) > 0
    if scale == "full":
        # The storm must actually have been stormy, and recovery bounded.
        assert sum(soak_report.fault_stats["fired"].values()) > 0, (
            "no fault fired at full scale; the soak ran fair-weather"
        )
        assert soak_report.max_recovery_seconds < RECOVERY_BOUND_SECONDS


# ------------------------------------------------------------ SIGKILL rounds
BARRIER = "/projects/alpha/dataframe?names=metric"


def _batch(values) -> dict:
    return {
        "filename": "ingest.py",
        "records": [{"name": "metric", "value": v, "ctx_id": 0} for v in values],
    }


def _stored_values(server: ServerProcess, project: str) -> set[str]:
    query = quote("SELECT value FROM logs WHERE value_name = 'metric'")
    body = server.get(f"/projects/{project}/sql?q={query}")
    return {str(record["value"]) for record in body["records"]}


@pytest.mark.parametrize("scale", sorted(KILL_SCALES))
def test_sigkill_rounds_store_each_row_once(benchmark, tmp_path, scale):
    rounds = KILL_SCALES[scale]
    root = tmp_path / "root"
    root.mkdir()
    ledger = AckLedger()
    project = "alpha"

    def run_rounds():
        recoveries = []
        sealed_per_round = []
        server = ServerProcess(root)
        server.start()
        try:
            server.wait_healthy()
            for round_ in range(rounds):
                for batch in range(KILL_BATCHES):
                    values = [
                        f"k{round_}.b{batch}.r{r}" for r in range(KILL_BATCH_ROWS)
                    ]
                    ledger.post(server.client, project, _batch(values))
                    if batch % 2 == 0:
                        ledger.seal(server.client, project, BARRIER)
                ledger.seal(server.client, project, BARRIER)
                sealed_per_round.append(ledger.counts()["sealed_rows"])
                server.kill9(barrier=f"mid_ingest_round{round_}")
                started = time.perf_counter()
                server = ServerProcess(root)
                server.start()
                server.wait_healthy(projects=(project,))
                recoveries.append(time.perf_counter() - started)
                stored = _stored_values(server, project)
                sealed = ledger.sealed_values(project, "metric")
                lost = sealed - stored
                assert not lost, (
                    f"round {round_}: {len(lost)} sealed row(s) lost after "
                    f"SIGKILL: {sorted(lost)[:5]}"
                )
            return recoveries, sealed_per_round, server
        except BaseException:
            server.terminate()
            raise

    recoveries, sealed_per_round, server = benchmark.pedantic(
        run_rounds, rounds=1, iterations=1
    )
    try:
        # Settle: every batch is resent under its key until a resend finds
        # it committed, so each row sent is stored exactly once.
        assert ledger.seal(server.client, project, BARRIER, rounds=3) == 0
        with Database(root / project / ".flor" / "flor.db") as db:
            assert_invariants(check_no_lost_rows(db, ledger, project))
    finally:
        server.terminate()
    mean_recovery = sum(recoveries) / len(recoveries)
    report(
        f"T13: SIGKILL recovery, {scale} scale",
        [
            {
                "rounds": rounds,
                "sealed_rows": sealed_per_round[-1],
                "mean_recovery_s": mean_recovery,
                "max_recovery_s": max(recoveries),
            }
        ],
    )
    if scale == "full":
        assert mean_recovery < RECOVERY_BOUND_SECONDS, (
            f"mean kill-to-healthy recovery {mean_recovery:.2f}s exceeds "
            f"{RECOVERY_BOUND_SECONDS}s"
        )
