"""A1 — Ablation: adaptive vs. fixed-interval vs. no checkpointing.

docs/architecture.md calls out adaptive checkpointing as a key design
decision.  This ablation records the same run under four policies and
measures (a) how many checkpoints each takes (recording cost) and (b) how
many iterations a targeted hindsight query must re-execute under each
(replay cost).
Expected shape: "never" minimizes record cost but forces full re-execution;
"every iteration" minimizes replay work at maximum record cost; adaptive
lands in between on both axes.
"""

from __future__ import annotations

import textwrap

import pytest
from conftest import report

from repro import HindsightEngine, ReplayPlan, active_session, flor
from repro.core.checkpoint import (
    AdaptiveCheckpointPolicy,
    EveryIterationPolicy,
    FixedIntervalPolicy,
    NeverCheckpointPolicy,
)

EPOCHS = 12

SCRIPT = textwrap.dedent(
    f"""
    state = {{"w": 0.0}}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range({EPOCHS})):
            acc = 0.0
            for i in range(1500):
                acc += (i % 5) * 0.01
            state["w"] += acc
            flor.log("loss", 1.0 / (1.0 + state["w"]))
    """
).strip()

NEW_SCRIPT = SCRIPT.replace(
    'flor.log("loss", 1.0 / (1.0 + state["w"]))',
    'flor.log("loss", 1.0 / (1.0 + state["w"]))\n        flor.log("weight", state["w"])',
)

POLICIES = [
    ("never", NeverCheckpointPolicy()),
    ("every-iteration", EveryIterationPolicy()),
    ("fixed-4", FixedIntervalPolicy(interval=4)),
    ("adaptive", AdaptiveCheckpointPolicy(max_overhead=0.05)),
]


def _record(make_session, name, policy):
    session = make_session(f"a1_{name}", checkpoint_policy=policy)
    (session.config.root / "train.py").write_text(SCRIPT)
    session.track("train.py")
    namespace = {"__file__": "train.py", "flor": flor}
    with active_session(session):
        exec(compile(SCRIPT, "train.py", "exec"), namespace)  # noqa: S102
        session.commit("run")
    return session


@pytest.mark.parametrize("name,policy", POLICIES, ids=[name for name, _ in POLICIES])
def test_checkpoint_policy_ablation(benchmark, make_session, name, policy):
    session = benchmark.pedantic(
        lambda: _record(make_session, name, policy), rounds=1, iterations=1
    )
    checkpoints_taken = session.checkpoints.saved

    engine = HindsightEngine(session)
    result = engine.backfill(
        "train.py", new_source=NEW_SCRIPT, plan=ReplayPlan.only(epoch=[EPOCHS - 1])
    )

    report(
        f"A1: checkpoint policy = {name}",
        [
            {
                "policy": name,
                "checkpoints_taken": checkpoints_taken,
                "replay_iterations_for_last_epoch": result.iterations_executed,
                "iterations_skipped": result.iterations_skipped,
            }
        ],
    )
    if name == "never":
        assert checkpoints_taken == 0
        assert result.iterations_executed == EPOCHS  # full re-execution forced
    if name == "every-iteration":
        assert checkpoints_taken == EPOCHS
        assert result.iterations_executed == 1
    if name == "fixed-4":
        assert checkpoints_taken == EPOCHS // 4
        assert 1 <= result.iterations_executed <= 4
    if name == "adaptive":
        assert 1 <= checkpoints_taken <= EPOCHS
        assert result.iterations_executed < EPOCHS
