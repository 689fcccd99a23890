"""Hindsight ≡ foresight, by property: the paper's guarantee as a test.

A statement S that a developer adds after the fact and backfills must leave
the project holding exactly what it would hold had S been in the script from
the start.  Hypothesis draws S from a small grammar — a ``flor.log`` at any
loop depth, before or after the nested ``flor.loop``, inside or outside
``flor.checkpointing``, right after ``flor.arg``, under a literal or an
f-string name — and a history of runs over four edits of the script.  The
edits may also rewrite the update right above the ``step`` slot in each edit
(same target, new text), or gain a statement directly above S's slot from a
drawn edit on.  The history is recorded twice under one checkpoint policy:
once with S in every edit (foresight), once without it and then backfilled
from the newest edit with S (hindsight).  The two projects must hold the
same ``logs`` and ``loops`` rows and the same ``flor.dataframe`` cell for
cell, with each run's tstamp read as its position in the history.

Every policy runs under ``serial`` and ``process`` replay.  Before the
backfill, each recorded run is also replayed twice by hand — once reading
and staging only the backfill's landing set, once over the whole run — and
the two must stage the same records.

The run is derandomized (same examples every time); a failure prints the
``@reproduce_failure`` blob of the shrunk example.  Where foresight and
hindsight may legitimately differ is listed in ``docs/testing.md``; none of
those cases is drawn here.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import HindsightEngine, ProjectConfig, Session
from repro.core import EveryIterationPolicy, FixedIntervalPolicy, NeverCheckpointPolicy
from repro.core.api import flor
from repro.core.propagation import propagate_statements
from repro.core.replay import replay_source
from repro.core.session import active_session

FILENAME = "train.py"
EDITS = 4
EPOCHS = 2
STEPS = 2

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


def record(root: Path, history: list[int], statement, policy: str, logged: bool) -> None:
    with Session(ProjectConfig(root, "oracle"), checkpoint_policy=POLICIES[policy]()) as session:
        session.track(FILENAME)
        for version in history:
            source = script(version, statement, logged)
            (root / FILENAME).write_text(source)
            namespace = {"__name__": "__main__", "__file__": FILENAME, "flor": flor}
            with active_session(session):
                exec(compile(source, FILENAME, "exec"), namespace)  # noqa: S102 - the test's script
                session.commit(f"version {version}")


def contents(root: Path, name: str):
    """Rows and frame of the project, each tstamp read as its run's ordinal."""
    with Session(ProjectConfig(root, "oracle")) as session:
        session.flush()
        ordinal = {t: i for i, t in enumerate(session.logs.distinct_tstamps(session.projid))}
        logs = sorted(
            (ordinal[t], *rest)
            for t, *rest in session.db.query(
                "SELECT tstamp, filename, ctx_id, value_name, value, value_type FROM logs"
            )
        )
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
        return logs, loops, sorted(frame, key=repr)


def backfill(root: Path, statement, parallelism: str) -> int:
    with Session(ProjectConfig(root, "oracle")) as session:
        report = HindsightEngine(session).backfill(
            FILENAME, new_source=script(EDITS - 1, statement), parallelism=parallelism,
            max_workers=2,
        )
        assert all(v.ok for v in report.versions), [
            v.error or v.replay.error for v in report.versions
        ]
        return report.new_records


def assert_landing_replays_stage_what_whole_run_replays_do(root: Path, statement) -> None:
    """Per recorded run: the replay of the backfill's landing set (the way a
    backfill runs it, on the propagation's code object) stages exactly the
    records a replay of the whole run stages."""
    with Session(ProjectConfig(root, "oracle")) as session:
        engine = HindsightEngine(session)
        for vid, tstamp in engine.version_epochs(FILENAME):
            patch = propagate_statements(
                engine.historical_source(vid, FILENAME), script(EDITS - 1, statement),
                filename=FILENAME,
            )
            staged = []
            for landing, code in ((patch.landing, patch.code), (None, None)):
                result = replay_source(
                    patch.patched_source, config=session.config, filename=FILENAME,
                    tstamp=tstamp, db=session.db, repository=session.repository,
                    landing=landing, code=code,
                )
                assert result.ok, result.error
                staged.append((
                    [r.as_row() for r in result.pending_logs],
                    [r.as_row() for r in result.pending_loops],
                ))
            assert staged[0] == staged[1]
            assert staged[0][0]


statements = st.tuples(
    st.sampled_from(sorted(SLOTS)), st.sampled_from(NAMES), st.booleans(),
    st.sampled_from(CHANGES),
)


@pytest.mark.parametrize("parallelism", ["serial", "process"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=20, deadline=None, derandomize=True, print_blob=True)
@given(
    history=st.lists(st.integers(0, EDITS - 1), min_size=1, max_size=4),
    statement=statements,
)
# S right below an update whose text every edit changes: S must still follow it.
@example(history=[0, 2], statement=("step", NAMES[0], True, "update"))
def test_a_backfilled_statement_leaves_what_logging_it_from_the_start_would(
    policy, parallelism, history, statement
):
    slot, (name_source, name), checkpointing, change = statement
    placed = (slot, name_source, checkpointing, change)
    with tempfile.TemporaryDirectory(prefix="flor-oracle-") as tmp:
        foresight, hindsight = Path(tmp) / "foresight", Path(tmp) / "hindsight"
        record(foresight, history, placed, policy, logged=True)
        record(hindsight, history, placed, policy, logged=False)
        expected = contents(foresight, name)
        s_rows = sum(1 for row in expected[0] if row[3] == name)
        assert s_rows > 0

        assert_landing_replays_stage_what_whole_run_replays_do(hindsight, placed)

        assert backfill(hindsight, placed, parallelism) == s_rows
        assert contents(hindsight, name) == expected
        # Backfilling again finds every row of S already in its run.
        assert backfill(hindsight, placed, "serial") == 0
        assert contents(hindsight, name) == expected
