"""What one replay reads does not depend on how much else the project holds.

A counting proxy behind the ``RelationalStore`` seam records every statement
a replay issues and how many rows come back; no wall-clock anywhere.
"""

from __future__ import annotations

import pytest

from repro import HindsightEngine, ReplayPlan
from repro.core.propagation import propagate_statements
from repro.core.replay import replay_source
from repro.workloads import VersionedScriptWorkload


class CountingStore:
    """A ``RelationalStore`` that counts the reads passing through it."""

    def __init__(self, inner):
        self.inner = inner
        self.statements: list[str] = []
        self.rows = 0

    def query(self, sql, params=()):
        rows = self.inner.query(sql, params)
        self.statements.append(sql)
        self.rows += len(rows)
        return rows

    def query_one(self, sql, params=()):
        rows = self.query(sql, params)
        return rows[0] if rows else None

    def __getattr__(self, name):
        return getattr(self.inner, name)


def replay_cost(make_session, versions: int, plan: ReplayPlan) -> CountingStore:
    """Replay the *second* version of a ``versions``-long project, counted.

    The script is the ledger's shape: ``flor.arg``, ``flor.checkpointing``
    around an epoch loop with a nested step loop.
    """
    workload = VersionedScriptWorkload(versions=versions, epochs=3, steps=2)
    session = make_session(f"v{versions}")
    vids = workload.record_all_versions(session)
    engine = HindsightEngine(session)
    vid, tstamp = engine.version_epochs("train.py")[1]
    assert vid == vids[1]
    patched = propagate_statements(
        engine.historical_source(vid, "train.py"), workload.hindsight_source()
    ).patched_source
    store = CountingStore(session.db)
    result = replay_source(
        patched,
        config=session.config,
        filename="train.py",
        tstamp=tstamp,
        db=store,
        repository=session.repository,
        plan=plan,
    )
    assert result.ok, result.error
    assert result.new_log_records > 0
    return store


@pytest.mark.parametrize(
    "plan", [ReplayPlan.all(), ReplayPlan.only(epoch=[2])], ids=["full", "differential"]
)
def test_replay_reads_the_same_in_a_small_and_a_large_project(make_session, plan):
    small = replay_cost(make_session, 3, plan)
    large = replay_cost(make_session, 30, plan)
    assert large.statements == small.statements
    assert large.rows == small.rows


def test_one_loops_query_per_file_not_per_loop_entry(make_session):
    store = replay_cost(make_session, 3, ReplayPlan.all())
    # One epoch loop entered once and one step loop entered three times.
    assert sum("FROM loops" in sql for sql in store.statements) == 1
    assert sum("FROM logs" in sql for sql in store.statements) == 1
