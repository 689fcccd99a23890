"""Fleet chaos: SIGKILL one worker mid-ingest, the fleet carries on.

The single-process kill9 test (``test_soak_smoke``) proves keyed rows are
stored exactly once across a server crash.  This one proves the *fleet*
version of the same contract: with two workers owning disjoint projects,
killing one worker

* never touches the surviving worker's projects,
* is repaired by the supervisor (same worker id, new pid, same ring
  position — the router re-resolves to the restarted process),
* and loses at most unsealed batches, which settling resends under their
  keys — the router forwards the ``Idempotency-Key``, so a batch its
  failover retried, or one resent after the kill, still lands once —
  verified with the same :class:`AckLedger` invariants the T13 soak uses.
"""

from __future__ import annotations

import threading
import time

from repro.relational.database import Database
from repro.testing import AckLedger, FleetProcess, assert_invariants, check_no_lost_rows


def _metrics(values: list[str]) -> dict:
    return {
        "filename": "train.py",
        "records": [{"name": "metric", "value": value, "ctx_id": 0} for value in values],
    }


def _barrier(project: str) -> str:
    return f"/projects/{project}/dataframe?names=metric"


class TestFleetWorkerKill:
    def test_a_keyed_stream_is_stored_exactly_once_across_a_worker_kill9(self, tmp_path):
        root = tmp_path / "root"
        ledger = AckLedger()
        with FleetProcess(root, workers=2) as fleet:
            placed = fleet.projects_on_distinct_workers(2)
            (victim_project, victim), (survivor_project, survivor) = placed.items()
            assert victim != survivor

            # Phase 1: sealed batches on both workers.
            for batch in range(3):
                for project in (victim_project, survivor_project):
                    values = [f"{project}.b{batch}.r{r}" for r in range(4)]
                    assert ledger.post(fleet.client, project, _metrics(values)).status == 202
            for project in (victim_project, survivor_project):
                assert ledger.seal(fleet.client, project, _barrier(project)) == 0

            # Phase 2: a keyed ingest stream is in flight against the
            # victim's project while the kill lands.  The ledger owes every
            # batch, answered or not: settling resends each under its key.
            stop = threading.Event()

            def ingest_stream() -> None:
                for batch in range(200):
                    if stop.is_set():
                        return
                    values = [f"{victim_project}.live{batch}.r{r}" for r in range(2)]
                    try:
                        ledger.post(fleet.client, victim_project, _metrics(values))
                    except Exception:  # noqa: BLE001 - caught mid-crash; owed all the same
                        pass

            streamer = threading.Thread(target=ingest_stream, daemon=True)
            streamer.start()
            time.sleep(0.2)  # let the stream get going: the kill is mid-ingest

            old_pid = fleet.kill_worker9(victim)
            recovery = fleet.wait_worker_recovered(victim, old_pid, timeout=60.0)
            stop.set()
            streamer.join(timeout=30)
            assert not streamer.is_alive()

            # The supervisor recycled the same identity: new pid, same ring
            # position, so the router resolves the project to victim again.
            view = fleet.worker_view(victim)
            assert view["pid"] != old_pid
            assert view["restarts"] >= 1
            assert fleet.resolve(victim_project) == victim
            assert recovery < 60.0

            # Sealed rows survived the kill on both workers; settling lands
            # the rest, each batch exactly once.
            for project in (victim_project, survivor_project):
                assert ledger.seal(fleet.client, project, _barrier(project), rounds=3) == 0

            # The survivor never even noticed: zero restarts.
            assert fleet.worker_view(survivor)["restarts"] == 0
            assert fleet.terminate() == 0

        violations = []
        for project in (victim_project, survivor_project):
            with Database(root / project / ".flor" / "flor.db") as db:
                violations += check_no_lost_rows(db, ledger, project)
        assert_invariants(violations)
        assert ledger.counts(victim_project)["batches"] > 3
