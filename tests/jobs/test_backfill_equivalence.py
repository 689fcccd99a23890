"""Inline ≡ per-version ≡ crashed-and-resumed job, by property.

One planner decides which recorded runs a backfill replays
(:meth:`HindsightEngine.version_epochs`), so however the work is cut — one
``backfill()`` call, one call per version in any order, or a durable job that
dies at a version boundary and is resumed — the project must end up holding
the same cells.  Hypothesis draws the history: up to three scripts, re-runs
of unchanged sources, edits (the last of which reads and commits for
itself, as the paper's figures end), and commits from an entry point that
never ran any of them.

The run is derandomized (same examples every time); a failure prints the
``@reproduce_failure`` blob of the shrunk history.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import HindsightEngine, ProjectConfig, Session
from repro.jobs import JobInterrupted, JobStore, directory_session_provider, execute_job
from repro.testing import assert_invariants, check_single_replay
from repro.workloads import VersionedScriptWorkload

TENANT = "tenant"
EDITS = 4


class Scripts(VersionedScriptWorkload):
    """The last edit ends with its own ``flor.dataframe`` and ``flor.commit()``:
    a replay of it must still only stage (``record_version``'s commit after
    it is then an epoch without rows — a spectator)."""

    def source_for_version(self, version: int) -> str:
        source = super().source_for_version(version)
        if version == self.versions - 1:
            source += '\nseen = len(flor.dataframe("loss"))\nflor.commit()\n'
        return source


SCRIPTS = {
    name: Scripts(versions=EDITS, epochs=2, steps=1, filename=name)
    for name in ("train.py", "eval.py", "prep.py")
}
TARGET = SCRIPTS["train.py"]
NO_ROW_TWICE = (
    "SELECT projid, tstamp, filename, ctx_id, value_name, COUNT(*) FROM logs"
    " GROUP BY projid, tstamp, filename, ctx_id, value_name HAVING COUNT(*) > 1"
)

#: One history step: run (script, edit) and commit, or a spectator commit.
#: Skewed towards the backfilled script and towards re-running an edit.
runs_of_target = st.tuples(st.just(TARGET.filename), st.sampled_from([0, 0, 1, 2, 3]))
steps = st.one_of(
    runs_of_target,
    runs_of_target,
    st.tuples(st.sampled_from(sorted(SCRIPTS)), st.integers(0, EDITS - 1)),
    st.just(("notebook.py", None)),
)
histories = st.builds(
    lambda first, rest: [first, *rest], runs_of_target, st.lists(steps, max_size=7)
)


def record_history(root: Path, history) -> set[str]:
    """Play ``history`` into ``<root>/tenant``; returns the tstamps that ran train.py."""
    ran_target = set()
    with Session(ProjectConfig(root / TENANT, TENANT)) as session:
        for i, (script, edit) in enumerate(history):
            if edit is None:
                session.log("aside", i, filename=script)
                session.commit(f"spectator {i}")
                continue
            if script == TARGET.filename:
                ran_target.add(session.tstamp)
            SCRIPTS[script].record_version(session, edit)
    return ran_target


def open_tenant(root: Path) -> Session:
    return Session(ProjectConfig(root / TENANT, TENANT))


def cells(root: Path):
    with open_tenant(root) as session:
        assert session.db.query(NO_ROW_TWICE) == []
        weights = {r.tstamp for r in session.logs.by_names(TENANT, ["weight"])}
        return session.dataframe("loss", "weight").to_records(), weights, session.logs.count()


def backfill_inline(root: Path) -> int:
    with open_tenant(root) as session:
        report = HindsightEngine(session).backfill(
            TARGET.filename, new_source=TARGET.hindsight_source()
        )
        return report.new_records


def backfill_per_version(root: Path, order: st.DataObject) -> int:
    with open_tenant(root) as session:
        engine = HindsightEngine(session)
        vids = order.draw(st.permutations(engine.plan_versions(TARGET.filename)), label="vid order")
        return sum(
            engine.backfill(
                TARGET.filename, new_source=TARGET.hindsight_source(), versions=[vid]
            ).new_records
            for vid in vids
        )


def backfill_by_crashed_job(root: Path, crash: st.DataObject) -> int:
    """A backfill job that dies before its k-th version, then a second attempt."""
    sessions = directory_session_provider(root)
    payload = {"filename": TARGET.filename, "new_source": TARGET.hindsight_source()}
    with JobStore.open(root) as store:
        job = store.submit(TENANT, "backfill", payload)
        total = 0
        polls = itertools.count()
        crash_before = crash.draw(st.integers(0, 4), label="crash before version")
        for worker, should_stop in (("doomed", lambda: next(polls) >= crash_before), ("heir", None)):
            claimed = store.claim(worker)
            store.mark_running(job.id, worker)
            try:
                summary = execute_job(
                    claimed, store, sessions, worker=worker, should_stop=should_stop
                )
            except JobInterrupted:
                total += sum(
                    e.payload["new_records"] for e in store.events(job.id) if e.kind == "version"
                )
                assert store.release(job.id, worker, reason="crash")
                continue
            store.finish(job.id, worker, summary)
            total += summary["new_records"]
            break
        assert_invariants(check_single_replay(store.db))
        with open_tenant(root) as session:
            planned = HindsightEngine(session).plan_versions(TARGET.filename)
        assert store.completed_versions(job.id) == set(planned), "one checkpoint per planned vid"
    return total


@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
@given(history=histories, data=st.data())
def test_inline_per_version_and_resumed_job_leave_the_same_cells(history, data):
    with tempfile.TemporaryDirectory(prefix="flor-equiv-") as tmp:
        base = Path(tmp) / "base"
        ran_target = record_history(base, history)
        before = cells(base)
        roots = {how: Path(tmp) / how for how in ("inline", "per_version", "job")}
        for root in roots.values():
            shutil.copytree(base, root)  # same tstamps, same rows

        added = {
            "inline": backfill_inline(roots["inline"]),
            "per_version": backfill_per_version(roots["per_version"], data),
            "job": backfill_by_crashed_job(roots["job"], data),
        }
        frames = {how: cells(root) for how, root in roots.items()}

        expected_rows = len(ran_target) * TARGET.epochs * TARGET.steps
        assert added == dict.fromkeys(roots, expected_rows)
        for how, (frame, weight_tstamps, log_rows) in frames.items():
            assert frame == frames["inline"][0], f"{how} differs from inline"
            # Rows exist only under tstamps that ran the file, nothing else moved.
            assert weight_tstamps == ran_target, how
            assert log_rows == before[2] + expected_rows, how

        # A second backfill adds nothing, whichever way the first one ran.
        for root in roots.values():
            assert backfill_inline(root) == 0
        assert {how: cells(root) for how, root in roots.items()} == frames


@pytest.mark.parametrize("include_latest", [True, False])
def test_replay_and_backfill_share_one_plan(tmp_path, include_latest):
    """The sibling entry point replays exactly the runs ``backfill`` would."""
    record_history(tmp_path, [("train.py", 0), ("eval.py", 0), ("train.py", 0), ("notebook.py", None)])
    with open_tenant(tmp_path) as session:
        engine = HindsightEngine(session)
        options = {"include_latest": include_latest, "dry_run": True}
        patched = engine.backfill(TARGET.filename, TARGET.hindsight_source(), **options)
        plain = engine.replay(TARGET.filename, **options)
        runs = engine.version_epochs(TARGET.filename, include_latest=include_latest)
        assert [(v.vid, v.tstamp) for v in patched.versions] == runs
        assert [(v.vid, v.tstamp) for v in plain.versions] == runs
        assert len(runs) == (2 if include_latest else 1)
