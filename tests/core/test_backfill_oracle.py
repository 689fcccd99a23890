"""Hindsight ≡ foresight, by property: the paper's guarantee as one oracle.

A statement S that a developer adds after the fact and backfills must leave
the project holding what it would hold had S been logged from the start,
whichever replay plan the backfill runs and however its work is cut.  One
derandomized ``@given`` draws every axis from a list, so a new plan, path or
edit kind is one more entry:

* **history** — runs of four edits of ``train.py`` (the last one reads its
  own frame and ends in ``flor.commit()``), runs of another tracked script,
  and commits from an entry point that ran neither;
* **S** — a ``flor.log`` right after ``flor.arg``, at the top of the block,
  before, in or after the inner loop, or at the end; inside
  ``flor.checkpointing`` or not; under a literal or an f-string name; with
  the edits rewriting the update right above the ``step`` slot, or gaining a
  statement directly above S's slot from a drawn edit on;
* **policy** — ``EveryIteration``, ``FixedInterval(2)`` or ``Never``;
* **plan** — the default, ``ReplayPlan.only(epoch=E)`` or ``only(step=E)``;
* **path** — inline ``serial`` or ``process``, one call per version in a
  drawn order, or a job that dies before a drawn version and is resumed.

The history is recorded twice: with S in every edit (foresight), and without
it, then backfilled from the newest edit with S (hindsight).  Under the
default plan both projects hold the same ``logs`` and ``loops`` rows and the
same frame, cell for cell, each tstamp read as its run's ordinal.  Under a
partial plan, what landed holds foresight's S rows in the selected
iterations and nothing foresight lacks, and a default-plan backfill after it
reaches foresight.  Each backfill lands a run's S rows in foresight's ``seq``
order; a second backfill adds nothing; S's rows sit only under tstamps that
ran the file; a job checkpoints each version once.  Before the backfill each
run is also replayed by hand, through the landing set and over the whole
run, and the two stage the same rows.

A failure prints the ``@reproduce_failure`` blob of the shrunk example.  Where
foresight and hindsight may legitimately differ is listed in
``docs/testing.md``; none of those cases is drawn here.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import HindsightEngine, ProjectConfig, Session
from repro.core import EveryIterationPolicy, FixedIntervalPolicy, NeverCheckpointPolicy
from repro.core.api import flor
from repro.core.propagation import propagate_statements
from repro.core.replay import ReplayPlan, replay_source
from repro.core.session import active_session
from repro.jobs import JobInterrupted, JobStore, directory_session_provider, execute_job
from repro.testing import assert_invariants, check_single_replay

TENANT = "oracle"
FILENAME, OTHER, SPECTATOR = "train.py", "eval.py", "notebook.py"
EDITS, EPOCHS, STEPS = 4, 2, 2
HISTORY = 5

#: Where S may sit: ``slot -> indentation``.  ``after_arg`` is top level,
#: outside the checkpointing block; ``top`` is inside it, above the loops.
SLOTS = {
    "after_arg": "",
    "top": "    ",
    "epoch_before": "        ",
    "step": "            ",
    "epoch_after": "        ",
    "end": "",
}
#: ``(source text of the name, the name it logs under)``.
NAMES = [('"hs"', "hs"), ('f"hs_{EPOCHS - 1}"', f"hs_{EPOCHS - 1}")]
#: What else the edits change: nothing; ``"update"``, the statement right
#: above the ``step`` slot, rewritten in every edit but for its target; or an
#: edit number, from which on a new statement sits directly above S's slot.
CHANGES = [None, "update", 1, 2, 3]
POLICIES = {
    "every": EveryIterationPolicy,
    "interval2": lambda: FixedIntervalPolicy(2),
    "never": NeverCheckpointPolicy,
}


def script(version: int, statement: tuple[str, str, bool, object], logged: bool = True) -> str:
    """Edit ``version`` of the script; ``statement`` is ``(slot, name source,
    checkpointing, change)``, with S placed in ``slot`` when ``logged``."""
    slot, name, checkpointing, change = statement
    update = f" + {version}" if change == "update" else ""
    lines = [
        f'"""Oracle script, version {version}."""',
        *(f"# revision note {i}: tuned after review" for i in range(version * 2)),
        f"LR = {0.01 * (version + 1)!r}",
        f"EPOCHS, STEPS = {EPOCHS}, {STEPS}",
        # Each edit starts from its own weight (flor.arg replays the recorded
        # lr), so replaying one edit's code for another is visible.
        f'state = {{"w": {version / 2!r}}}',
        'lr = flor.arg("lr", LR)',
        "<after_arg>",
        "with flor.checkpointing(state=state):" if checkpointing else "if True:",
        "<top>",
        '    for epoch in flor.loop("epoch", range(EPOCHS)):',
        "<epoch_before>",
        '        for step in flor.loop("step", range(STEPS)):',
        f'            state["w"] += lr / (1 + epoch + step{update})',
        "<step>",
        '            flor.log("loss", 1.0 / (1.0 + state["w"]))',
        "<epoch_after>",
        "<end>",
        'flor.log("final_w", state["w"])',
    ]
    if version == EDITS - 1:  # as the paper's figures end; a replay still only stages
        lines += ['seen = len(flor.dataframe("loss"))', "flor.commit()"]
    out = []
    for line in lines:
        if line.startswith("<"):
            if line[1:-1] == slot and isinstance(change, int) and version >= change:
                out.append(f"{SLOTS[slot]}noted = {version}")
            if line[1:-1] == slot and logged:
                out.append(f'{SLOTS[slot]}flor.log({name}, state["w"] * 3 + lr)')
            continue
        out.append(line)
    return "\n".join(out) + "\n"


def open_project(root: Path, policy: str = "never") -> Session:
    return Session(ProjectConfig(root / TENANT, TENANT), checkpoint_policy=POLICIES[policy]())


def record(root: Path, history, statement, policy: str, logged: bool) -> set[str]:
    """Play ``history`` into ``root``; returns the tstamps that ran train.py."""
    ran = set()
    with open_project(root, policy) as session:
        for i, (filename, edit) in enumerate(history):
            if filename == SPECTATOR:
                session.log("aside", i, filename=SPECTATOR)
                session.commit(f"spectator {i}")
                continue
            if filename == FILENAME:
                ran.add(session.tstamp)
            source = script(edit, statement, logged and filename == FILENAME)
            (session.config.root / filename).write_text(source)
            session.track(filename)
            with active_session(session):
                namespace = {"__name__": "__main__", "__file__": filename, "flor": flor}
                exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - the test's script
                session.commit(f"{filename} edit {edit}")
    return ran


def read(root: Path, name: str, since: int = 0):
    """``(logs, loops, frame)`` of the project, each tstamp read as its run's
    ordinal; S's rows past ``seq`` ``since``, in ``seq`` order; the last
    ``seq``; and the ordinal of each tstamp."""
    with open_project(root) as session:
        ordinal = {t: i for i, t in enumerate(session.logs.distinct_tstamps(session.projid))}
        logs = [
            (ordinal[t], *rest)
            for t, *rest in session.db.query(
                "SELECT tstamp, filename, ctx_id, value_name, value, value_type, seq FROM logs"
                " ORDER BY seq"
            )
        ]
        loops = sorted(
            (ordinal[t], *rest)
            for t, *rest in session.db.query(
                "SELECT tstamp, filename, ctx_id, parent_ctx_id, loop_name, loop_iteration,"
                " iteration_value FROM loops"
            )
        )
        frame = [
            {**row, "tstamp": ordinal[row["tstamp"]]}
            for row in session.dataframe("loss", name, "final_w", "lr").to_records()
        ]
    cells = (sorted(row[:-1] for row in logs), loops, sorted(frame, key=repr))
    s_rows = [row[:-1] for row in logs if row[3] == name and row[-1] > since]
    return cells, s_rows, max((row[-1] for row in logs), default=0), ordinal


def selected(rows, loops, plan: ReplayPlan) -> set[tuple]:
    """The ``rows`` logged inside loop iterations that ``plan`` selects at every level."""
    frames = {(run, file, ctx): (parent, loop, i) for run, file, ctx, parent, loop, i, _ in loops}

    def chosen(run, filename, ctx):
        hops = []
        while (run, filename, ctx) in frames:
            ctx, loop, i = frames[run, filename, ctx]
            hops.append(plan.selects(loop, i))
        return bool(hops) and all(hops)

    return {row for row in rows if chosen(*row[:3])}


def assert_in_order(landed, foresight) -> None:
    """Per run, the S rows one backfill landed, in ``seq`` order, are a
    subsequence of foresight's."""
    for run in {row[0] for row in landed}:
        expected = iter(row for row in foresight if row[0] == run)
        assert all(row in expected for row in landed if row[0] == run), run


def assert_landing_replays_stage_what_whole_run_replays_do(root: Path, new_source: str) -> None:
    """Per recorded run: the replay of the backfill's landing set (on the
    propagation's code object) stages exactly what a whole-run replay stages."""
    with open_project(root) as session:
        engine = HindsightEngine(session)
        for vid, tstamp in engine.version_epochs(FILENAME):
            patch = propagate_statements(
                engine.historical_source(vid, FILENAME), new_source, filename=FILENAME
            )
            staged = []
            for landing, code in ((patch.landing, patch.code), (None, None)):
                result = replay_source(
                    patch.patched_source, config=session.config, filename=FILENAME,
                    tstamp=tstamp, db=session.db, repository=session.repository,
                    landing=landing, code=code,
                )
                assert result.ok, result.error
                staged.append((result.pending_logs, result.pending_loops))
            assert staged[0] == staged[1] and staged[0][0]


def backfill(root: Path, new_source: str, plan=ReplayPlan.all(), parallelism="serial",
             versions=None) -> int:
    with open_project(root) as session:
        report = HindsightEngine(session).backfill(
            FILENAME, new_source, plan=plan, parallelism=parallelism, max_workers=2,
            versions=versions,
        )
    assert all(v.ok for v in report.versions), [v.error or v.replay.error for v in report.versions]
    return report.new_records


def per_version(root: Path, new_source: str, plan: ReplayPlan, cut: list[int]) -> int:
    """One backfill call per version id, in the order ``cut`` draws."""
    with open_project(root) as session:
        vids = HindsightEngine(session).plan_versions(FILENAME)
    order = sorted(vids, key=lambda vid: cut[vids.index(vid)])
    return sum(backfill(root, new_source, plan, versions=[vid]) for vid in order)


def crashed_job(root: Path, new_source: str, plan: ReplayPlan, cut: list[int]) -> int:
    """A backfill job that dies before its ``cut[0]``-th version, then a second attempt."""
    payload = {"filename": FILENAME, "new_source": new_source, "plan": plan.to_dict()}
    polls = itertools.count()
    with JobStore.open(root) as store:
        job = store.submit(TENANT, "backfill", payload)
        for worker, should_stop in (("doomed", lambda: next(polls) >= cut[0]), ("heir", None)):
            claimed = store.claim(worker)
            store.mark_running(job.id, worker)
            try:
                summary = execute_job(
                    claimed, store, directory_session_provider(root), worker=worker,
                    should_stop=should_stop,
                )
            except JobInterrupted:
                assert store.release(job.id, worker, reason="crash")
                continue
            store.finish(job.id, worker, summary)
            break
        assert_invariants(check_single_replay(store.db))
        with open_project(root) as session:
            planned = HindsightEngine(session).plan_versions(FILENAME)
        assert store.completed_versions(job.id) == set(planned), "one checkpoint per planned vid"
        return sum(e.payload["new_records"] for e in store.events(job.id) if e.kind == "version")


PATHS = {
    "serial": lambda root, source, plan, cut: backfill(root, source, plan),
    "process": lambda root, source, plan, cut: backfill(root, source, plan, "process"),
    "per_version": per_version,
    "job": crashed_job,
}
PLANS = {
    "default": lambda chosen: ReplayPlan.all(),
    "epoch": lambda chosen: ReplayPlan.only(epoch=chosen),
    "step": lambda chosen: ReplayPlan.only(step=chosen),
}

statements = st.tuples(
    st.sampled_from(sorted(SLOTS)), st.sampled_from(NAMES), st.booleans(), st.sampled_from(CHANGES)
)
#: One history step: run (script, edit) and commit, or a spectator commit;
#: skewed towards the backfilled script.
target_runs = st.tuples(st.just(FILENAME), st.integers(0, EDITS - 1))
steps = st.one_of(
    target_runs, target_runs, st.tuples(st.just(OTHER), st.integers(0, EDITS - 1)),
    st.just((SPECTATOR, None)),
)
histories = st.builds(
    lambda first, rest: [first, *rest], target_runs, st.lists(steps, max_size=HISTORY - 1)
)
#: A plan over some of the epochs or of the steps (as many of each).
plans = st.builds(
    lambda kind, chosen: PLANS[kind](sorted(chosen)),
    st.sampled_from(sorted(PLANS)), st.sets(st.integers(0, EPOCHS - 1), min_size=1),
)


@settings(max_examples=150, deadline=None, derandomize=True, print_blob=True)
@given(
    history=histories, statement=statements, policy=st.sampled_from(sorted(POLICIES)),
    plan=plans, path=st.sampled_from(sorted(PATHS)), cut=st.permutations(range(HISTORY)),
)
# S right below an update whose text every edit changes: S must still follow it.
@example(
    history=[(FILENAME, 0), (FILENAME, 2)], statement=("step", NAMES[0], True, "update"),
    policy="every", plan=ReplayPlan.all(), path="serial", cut=list(range(HISTORY)),
)
# S in the checkpointed loop, a plan that restores the checkpoint after epoch 0.
@example(
    history=[(FILENAME, 1)], statement=("epoch_after", NAMES[0], True, None),
    policy="every", plan=ReplayPlan.only(epoch=[1]), path="process", cut=list(range(HISTORY)),
)
def test_a_backfilled_statement_leaves_what_logging_it_from_the_start_would(
    history, statement, policy, plan, path, cut
):
    slot, (name_source, name), checkpointing, change = statement
    placed = (slot, name_source, checkpointing, change)
    new_source = script(EDITS - 1, placed)
    with tempfile.TemporaryDirectory(prefix="flor-oracle-") as tmp:
        foresight, hindsight = Path(tmp) / "foresight", Path(tmp) / "hindsight"
        record(foresight, history, placed, policy, logged=True)
        ran = record(hindsight, history, placed, policy, logged=False)
        expected, s_foresight, _, _ = read(foresight, name)
        before, _, _, ordinal = read(hindsight, name)
        assert s_foresight

        assert_landing_replays_stage_what_whole_run_replays_do(hindsight, new_source)

        added = PATHS[path](hindsight, new_source, plan, cut)
        landed, s_rows, last, _ = read(hindsight, name)
        assert added == len(s_rows)
        assert_in_order(s_rows, s_foresight)
        if not plan.is_total():
            lower = set(before[0]) | selected(s_foresight, expected[1], plan)
            assert lower <= set(landed[0]) <= set(expected[0])
            assert landed[1] == expected[1]
            added += backfill(hindsight, new_source)
            landed, s_rows, _, _ = read(hindsight, name, since=last)
            assert_in_order(s_rows, s_foresight)
        assert landed == expected
        assert added == len(s_foresight)
        # Rows exist only under tstamps that ran the file.
        assert {row[0] for row in landed[0] if row[3] == name} == {ordinal[t] for t in ran}
        # Backfilling again finds every row of S already in its run.
        assert backfill(hindsight, new_source) == 0
        assert read(hindsight, name)[0] == expected


@pytest.mark.parametrize("include_latest", [True, False])
def test_replay_and_backfill_share_one_plan(tmp_path, include_latest):
    """The sibling entry point replays exactly the runs ``backfill`` would."""
    statement = ("step", NAMES[0][0], True, None)
    history = [(FILENAME, 0), (OTHER, 0), (FILENAME, 0), (SPECTATOR, None)]
    record(tmp_path, history, statement, "never", logged=False)
    with open_project(tmp_path) as session:
        engine = HindsightEngine(session)
        options = {"include_latest": include_latest, "dry_run": True}
        patched = engine.backfill(FILENAME, script(EDITS - 1, statement), **options)
        plain = engine.replay(FILENAME, **options)
        runs = engine.version_epochs(FILENAME, include_latest=include_latest)
        assert [(v.vid, v.tstamp) for v in patched.versions] == runs
        assert [(v.vid, v.tstamp) for v in plain.versions] == runs
        assert len(runs) == (2 if include_latest else 1)
