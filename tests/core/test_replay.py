"""Tests for replay plans and replay-mode sessions."""

from __future__ import annotations

import textwrap

import pytest

from repro import HindsightEngine, ProjectConfig, Session, active_session, flor
from repro.core import EveryIterationPolicy
from repro.core.replay import ReplayPlan, replay_source
from repro.core.session import REPLAY
from repro.errors import ReplayError

RECORD_SOURCE = textwrap.dedent(
    """
    lr = flor.arg("lr", 0.25)
    state = {"w": 0.0}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range(4)):
            state["w"] += lr * (epoch + 1)
            flor.log("loss", 1.0 / (1.0 + state["w"]))
    """
).strip()

#: Same script with an extra statement, as produced by propagation.
REPLAY_SOURCE = RECORD_SOURCE.replace(
    'flor.log("loss", 1.0 / (1.0 + state["w"]))',
    'flor.log("loss", 1.0 / (1.0 + state["w"]))\n        flor.log("weight", state["w"])',
)


@pytest.fixture()
def recorded(project):
    """Record one run of the script and return (session, tstamp)."""
    session = Session(project, cli_args={"lr": 0.5})
    namespace = {"__file__": "train.py", "flor": flor}
    with active_session(session):
        exec(compile(RECORD_SOURCE, "train.py", "exec"), namespace)  # noqa: S102
        session.commit("v1")
    tstamp = session.ts2vid.all(session.projid)[0].ts_start
    yield session, tstamp
    session.close()


def replay_and_land(session, source, **kwargs):
    """Replay and land the new records the way the hindsight engine does."""
    result = replay_source(source, db=session.db, **kwargs)
    session.stage(result.pending_logs, result.pending_loops)
    session.flush()
    return result


class TestReplayPlan:
    def test_default_plan_selects_everything(self):
        plan = ReplayPlan.all()
        assert plan.is_total()
        assert plan.selects("epoch", 100)

    def test_only_restricts_named_loops(self):
        plan = ReplayPlan.only(epoch=[2, 3])
        assert plan.selects("epoch", 2)
        assert not plan.selects("epoch", 0)
        assert plan.selects("step", 7)  # unnamed loops run fully

    def test_dict_roundtrip(self):
        plan = ReplayPlan.only(epoch=range(2), step=[0])
        assert ReplayPlan.from_dict(plan.to_dict()).selections == plan.selections
        assert ReplayPlan.from_dict(None).is_total()


class TestReplaySession:
    def test_replay_requires_tstamp(self, project):
        with pytest.raises(ReplayError):
            Session(project, mode=REPLAY, default_filename="train.py")

    def test_arg_returns_historical_value(self, recorded, project):
        session, tstamp = recorded
        result = replay_and_land(
            session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp
        )
        assert result.ok
        # Historical lr was 0.5 (not the script default 0.25); weights reflect it.
        frame = session.dataframe("weight")
        assert frame.row(0)["weight"] == pytest.approx(0.5)

    def test_replay_attributes_new_logs_to_original_tstamp(self, recorded, project):
        session, tstamp = recorded
        replay_and_land(session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp)
        frame = session.dataframe("weight")
        assert set(frame["tstamp"].to_list()) == {tstamp}

    def test_replay_deduplicates_existing_log_values(self, recorded, project):
        session, tstamp = recorded
        before = len(session.logs.by_names(session.projid, ["loss"]))
        result = replay_and_land(
            session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp
        )
        after = len(session.logs.by_names(session.projid, ["loss"]))
        assert before == after  # loss values already existed; only weight is new
        assert result.new_log_records == 4

    def test_replay_is_idempotent(self, recorded, project):
        session, tstamp = recorded
        first = replay_and_land(session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp)
        second = replay_and_land(session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp)
        assert first.new_log_records == 4
        assert second.new_log_records == 0

    def test_replay_reuses_recorded_ctx_ids(self, recorded, project):
        session, tstamp = recorded
        replay_and_land(session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp)
        frame = session.dataframe("loss", "weight")
        # weight joins loss on the same per-epoch rows: no row has one without the other.
        assert len(frame) == 4
        assert not frame.weight.isna().any()
        assert not frame.loss.isna().any()

    def test_differential_replay_skips_unselected_iterations(self, recorded, project):
        session, tstamp = recorded
        result = replay_source(
            REPLAY_SOURCE,
            config=project,
            filename="train.py",
            tstamp=tstamp,
            db=session.db,
            plan=ReplayPlan.only(epoch=[3]),
        )
        assert result.iterations_executed < 4
        assert result.iterations_skipped >= 1

    def test_differential_replay_restores_state_from_checkpoints(self, recorded, project):
        """Replaying only the last epoch lands the weight a full replay would."""
        session, tstamp = recorded
        partial = replay_and_land(
            session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp,
            plan=ReplayPlan.only(epoch=[3]),
        )
        assert partial.ok and partial.iterations_executed <= 4
        expected = {e: pytest.approx(0.5 * sum(range(1, e + 2))) for e in range(4)}
        # Epoch 3, and the epochs re-run since the nearest checkpoint, with
        # the values a full replay gives them.
        weights = {row["epoch"]: row["weight"] for row in session.dataframe("weight").to_records()}
        assert 3 in weights and weights == {e: expected[e] for e in weights}
        replay_and_land(session, REPLAY_SOURCE, config=project, filename="train.py", tstamp=tstamp)
        weights = {row["epoch"]: row["weight"] for row in session.dataframe("weight").to_records()}
        assert weights == expected

    def test_replay_reports_syntax_errors(self, recorded, project):
        session, tstamp = recorded
        result = replay_source("def broken(:\n", config=project, filename="train.py", tstamp=tstamp, db=session.db)
        assert not result.ok
        assert "syntax" in result.error.lower()

    def test_replay_reports_runtime_errors(self, recorded, project):
        session, tstamp = recorded
        result = replay_source(
            "raise ValueError('boom')\n", config=project, filename="train.py", tstamp=tstamp, db=session.db
        )
        assert not result.ok
        assert "ValueError" in result.error

    def test_collect_only_returns_records_without_writing(self, recorded, project):
        session, tstamp = recorded
        result = replay_source(
            REPLAY_SOURCE,
            config=project,
            filename="train.py",
            tstamp=tstamp,
            db=session.db,
            plan=ReplayPlan.all(),
        )
        assert result.new_log_records == 4
        assert len(result.pending_logs) == 4
        assert session.dataframe("weight").empty


#: A checkpointed epoch loop around a step loop; lr 0.25, so the weight after
#: (epoch e, step s) is 0.25 * the running sum of (e + s + 1).
NESTED_SOURCE = textwrap.dedent(
    """
    lr = flor.arg("lr", 0.25)
    state = {"w": 0.0}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range(3)):
            for step in flor.loop("step", range(2)):
                state["w"] += lr * (epoch + step + 1)
                flor.log("loss", 1.0 / (1.0 + state["w"]))
    flor.log("final", 1.0 / (1.0 + state["w"]))
    """
).strip()
WEIGHTS = [0.25, 0.75, 1.25, 2.0, 2.75, 3.75]
#: The statements added after the fact: one in the step body, one after the loop.
IN_STEP = NESTED_SOURCE.replace(
    'flor.log("loss", 1.0 / (1.0 + state["w"]))',
    'flor.log("loss", 1.0 / (1.0 + state["w"]))\n            flor.log("w", state["w"])',
)
AFTER_LOOP = NESTED_SOURCE + '\nflor.log("w_end", state["w"])'


class TestPartialPlans:
    """A plan restricts only the checkpointed loop, and a replay that stops
    short of that loop's last iteration ends there: a partial plan lands a
    subset of what the default plan lands, never another value."""

    @pytest.fixture()
    def engine(self, project):
        (project.root / "train.py").write_text(NESTED_SOURCE)
        with Session(project, checkpoint_policy=EveryIterationPolicy()) as session:
            session.track("train.py")
            with active_session(session):
                namespace = {"__file__": "train.py", "flor": flor}
                exec(compile(NESTED_SOURCE, "train.py", "exec"), namespace)  # noqa: S102
                session.commit("v1")
            yield HindsightEngine(session)

    @staticmethod
    def landed(engine, name):
        return sorted(engine.session.dataframe(name)[name].to_list())

    def test_a_plan_ending_before_the_last_epoch_runs_nothing_after_the_loop(self, engine):
        report = engine.backfill("train.py", AFTER_LOOP, plan=ReplayPlan.only(epoch=[0]))
        assert [v.ok for v in report.versions] == [True]
        assert report.new_records == 0  # not the weight after epoch 0
        assert engine.backfill("train.py", AFTER_LOOP).new_records == 1
        assert self.landed(engine, "w_end") == [pytest.approx(WEIGHTS[-1])]

    def test_a_plan_reaching_the_last_epoch_runs_on_past_the_loop(self, engine):
        report = engine.backfill("train.py", AFTER_LOOP, plan=ReplayPlan.only(epoch=[2]))
        assert report.iterations_skipped == 2 and report.new_records == 1
        assert self.landed(engine, "w_end") == [pytest.approx(WEIGHTS[-1])]

    def test_a_plan_on_an_inner_loop_runs_all_of_it(self, engine):
        report = engine.backfill("train.py", IN_STEP, plan=ReplayPlan.only(step=[1]))
        assert report.iterations_skipped == 0
        assert self.landed(engine, "w") == [pytest.approx(w) for w in WEIGHTS]
