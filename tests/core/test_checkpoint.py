"""Tests for checkpoint policies and the checkpoint manager."""

from __future__ import annotations

import pytest

from repro.core.checkpoint import (
    AdaptiveCheckpointPolicy,
    CheckpointKey,
    CheckpointManager,
    EveryIterationPolicy,
    FixedIntervalPolicy,
    NeverCheckpointPolicy,
)
from repro.errors import CheckpointError
from repro.ml.mlp import MLPClassifier
from repro.relational.repositories import ObjectRepository
from repro.runtime import BackgroundFlusher


@pytest.fixture()
def flusher(db):
    with BackgroundFlusher(db) as flusher:
        yield flusher


@pytest.fixture()
def manager(flusher):
    return CheckpointManager(flusher)


def key(ctx_id: int, loop: str = "epoch") -> CheckpointKey:
    return CheckpointKey("p", "t1", "train.py", ctx_id, loop)


class TestPolicies:
    def test_every_iteration(self):
        policy = EveryIterationPolicy()
        assert all(policy.should_checkpoint(i, 0.1, 0.1) for i in range(5))

    def test_never(self):
        policy = NeverCheckpointPolicy()
        assert not any(policy.should_checkpoint(i, 0.1, 0.1) for i in range(5))

    def test_fixed_interval(self):
        policy = FixedIntervalPolicy(interval=3)
        decisions = [policy.should_checkpoint(i, 0.1, 0.1) for i in range(6)]
        assert decisions == [False, False, True, False, False, True]

    def test_fixed_interval_zero_disables(self):
        policy = FixedIntervalPolicy(interval=0)
        assert not policy.should_checkpoint(0, 0.1, 0.1)

    def test_adaptive_always_checkpoints_first_iteration(self):
        policy = AdaptiveCheckpointPolicy()
        assert policy.should_checkpoint(0, 0.0, 0.0)

    def test_adaptive_spaces_out_when_checkpoints_are_expensive(self):
        policy = AdaptiveCheckpointPolicy(max_overhead=0.1)
        # Iteration costs 0.01s, checkpoint costs 0.01s → period = ceil(0.01/(0.1*0.01)) = 10.
        decisions = [policy.should_checkpoint(i, 0.01, 0.01) for i in range(1, 25)]
        assert sum(decisions) <= 3

    def test_adaptive_checkpoints_densely_when_iterations_are_slow(self):
        policy = AdaptiveCheckpointPolicy(max_overhead=0.1)
        # Iteration costs 1s, checkpoint costs 0.01s → period 1 → every iteration.
        decisions = [policy.should_checkpoint(i, 1.0, 0.01) for i in range(1, 6)]
        assert all(decisions)


class TestManagerSaveRestore:
    def test_registration_bookkeeping(self, manager):
        assert not manager.has_registrations
        manager.register({"state": {"w": 1}})
        assert manager.registered_names == ["state"]
        manager.clear()
        assert not manager.has_registrations

    def test_save_and_load_roundtrip(self, manager):
        manager.register({"state": {"w": 3.5}})
        manager.save(key(1))
        assert manager.saved == 1
        assert manager.load(key(1)) == {"state": {"w": 3.5}}
        assert manager.load(key(99)) is None

    def test_restore_mutates_dict_in_place(self, manager):
        state = {"w": 0.0}
        manager.register({"state": state})
        state["w"] = 5.0
        manager.save(key(1))
        state["w"] = 123.0
        assert manager.restore(key(1))
        assert state["w"] == 5.0  # same object, contents restored

    def test_restore_mutates_list_in_place(self, manager):
        history = [1, 2]
        manager.register({"history": history})
        manager.save(key(2))
        history.append(3)
        manager.restore(key(2))
        assert history == [1, 2]

    def test_restore_missing_checkpoint_returns_false(self, manager):
        manager.register({"state": {}})
        assert manager.restore(key(42)) is False

    def test_restore_uses_load_state_dict_for_models(self, manager):
        model = MLPClassifier(4, 2, hidden_sizes=(3,), seed=0)
        original = model.state_dict()
        manager.register({"model": model})
        manager.save(key(1))
        # Perturb the weights, then restore.
        model.layers[0].W += 1.0
        manager.restore(key(1))
        restored = model.state_dict()
        for name in original:
            assert (original[name] == restored[name]).all()

    def test_maybe_save_respects_policy(self, db):
        manager = CheckpointManager(BackgroundFlusher(db), policy=NeverCheckpointPolicy())
        manager.register({"state": {}})
        assert manager.maybe_save(key(1), iteration=0, iter_seconds=0.1) is False
        assert manager.saved == 0

    def test_maybe_save_without_registrations_is_noop(self, manager):
        assert manager.maybe_save(key(1), iteration=0, iter_seconds=0.1) is False

    def test_unpicklable_object_raises_checkpoint_error(self, manager, flusher):
        manager.register({"bad": lambda x: x})  # lambdas cannot be pickled
        manager.save(key(1))  # the snapshot succeeds; the flusher pickles
        with pytest.raises(CheckpointError):
            flusher.drain()

    def test_available_checkpoints_filters_by_file_and_prefix(self, manager, db):
        manager.register({"state": {"w": 1}})
        manager.save(key(1))
        manager.save(key(4))
        ObjectRepository(db).put  # unrelated access; no extra rows
        listed = manager.available_checkpoints("p", "t1", "train.py")
        assert listed == [(1, "epoch"), (4, "epoch")]
        assert manager.available_checkpoints("p", "t1", "other.py") == []
