"""Async checkpoint writes: drain-barrier ordering and cost accounting."""

from __future__ import annotations

import time

import pytest

from repro.core.checkpoint import (
    CheckpointKey,
    CheckpointManager,
    NeverCheckpointPolicy,
)
from repro.errors import CheckpointError
from repro.relational.database import Database
from repro.relational.repositories import ObjectRepository
from repro.runtime import AsyncCheckpointWriter


@pytest.fixture()
def db():
    with Database(":memory:") as database:
        yield database


class SlowObjectRepository(ObjectRepository):
    """Object store whose writes take a visible amount of wall clock."""

    def __init__(self, db, delay: float = 0.05):
        super().__init__(db)
        self.delay = delay
        self.puts = 0

    def put(self, record):
        time.sleep(self.delay)
        self.puts += 1
        super().put(record)


def key(ctx_id: int) -> CheckpointKey:
    return CheckpointKey("p", "t1", "train.py", ctx_id, "epoch")


class TestDrainBarrier:
    def test_restore_sees_in_flight_checkpoint(self, db):
        objects = SlowObjectRepository(db, delay=0.05)
        manager = CheckpointManager(objects, writer=AsyncCheckpointWriter(objects))
        state = {"w": 1.0}
        manager.register({"state": state})
        manager.save(key(1))  # returns before the slow store write finishes
        state["w"] = 999.0
        # restore() drains first, so the checkpoint written moments ago is
        # guaranteed visible even though the store is slow.
        assert manager.restore(key(1)) is True
        assert state["w"] == 1.0
        manager.close()

    def test_available_checkpoints_waits_for_in_flight_writes(self, db):
        objects = SlowObjectRepository(db, delay=0.05)
        manager = CheckpointManager(objects, writer=AsyncCheckpointWriter(objects))
        manager.register({"state": {"w": 1}})
        manager.save(key(1))
        manager.save(key(2))
        assert manager.available_checkpoints("p", "t1", "train.py") == [(1, "epoch"), (2, "epoch")]
        manager.close()

    def test_save_snapshots_before_later_mutations(self, db):
        objects = SlowObjectRepository(db, delay=0.05)
        manager = CheckpointManager(objects, writer=AsyncCheckpointWriter(objects))
        state = {"w": 1.0}
        manager.register({"state": state})
        manager.save(key(1))
        state["w"] = 2.0  # mutated while the write is still in flight
        manager.drain()
        assert manager.load(key(1)) == {"state": {"w": 1.0}}
        manager.close()


class TestCostAccounting:
    def test_sync_manager_splits_serialize_from_write(self, db):
        """Regression: the store write must not inflate the policy's cost —
        with the manager's own writer (none passed in) as with an injected one."""
        objects = SlowObjectRepository(db, delay=0.08)
        manager = CheckpointManager(objects)
        manager.register({"state": {"w": list(range(100))}})
        manager.save(key(1))
        assert manager.saved == 1
        manager.close()  # drains the 80ms store write
        assert manager.serialize_seconds < 0.04
        assert manager.write_seconds >= 0.08

    def test_policy_is_fed_the_on_thread_cost_only(self, db):
        class RecordingPolicy:
            def __init__(self):
                self.costs = []

            def should_checkpoint(self, iteration, iter_seconds, ckpt_seconds):
                self.costs.append(ckpt_seconds)
                return True

        objects = SlowObjectRepository(db, delay=0.08)
        policy = RecordingPolicy()
        manager = CheckpointManager(objects, policy=policy)
        manager.register({"state": {"w": 1}})
        manager.maybe_save(key(1), iteration=0, iter_seconds=0.01)
        manager.maybe_save(key(2), iteration=1, iter_seconds=0.01)
        # The second decision sees the measured cost of the first save —
        # which must exclude the 80ms store write.
        assert policy.costs[1] < 0.04
        manager.close()

    def test_async_manager_charges_only_the_snapshot_on_thread(self, db):
        objects = SlowObjectRepository(db, delay=0.08)
        manager = CheckpointManager(objects, writer=AsyncCheckpointWriter(objects))
        manager.register({"state": {"w": 1}})
        started = time.perf_counter()
        manager.save(key(1))
        on_thread = time.perf_counter() - started
        assert on_thread < 0.04  # did not wait for the 80ms store write
        assert manager.serialize_seconds < 0.04
        manager.drain()
        assert manager.write_seconds >= 0.08  # pickle + write, off-thread
        manager.close()


class TestErrorSurfacing:
    def test_unpicklable_state_surfaces_at_drain(self, db):
        objects = ObjectRepository(db)
        manager = CheckpointManager(objects, writer=AsyncCheckpointWriter(objects))
        manager.register({"bad": lambda x: x})
        manager.save(key(1))  # deepcopy of a function succeeds
        with pytest.raises(CheckpointError):
            manager.drain()
        manager.close()

    def test_submit_after_close_raises(self, db):
        objects = ObjectRepository(db)
        writer = AsyncCheckpointWriter(objects)
        writer.close()
        with pytest.raises(CheckpointError):
            writer.submit(key(1), {"w": 1})

    def test_backpressure_bounds_queued_snapshots(self, db):
        # Each queued checkpoint holds a full state copy; the bound keeps a
        # slow store from accumulating snapshots without limit.
        objects = SlowObjectRepository(db, delay=0.03)
        writer = AsyncCheckpointWriter(objects, max_pending=2)
        for i in range(6):
            writer.submit(key(i), {"w": i})
        writer.drain()
        assert writer.stats.backpressure_waits >= 1
        assert objects.puts == 6
        writer.close()

    def test_invalid_max_pending_rejected(self, db):
        with pytest.raises(ValueError):
            AsyncCheckpointWriter(ObjectRepository(db), max_pending=0)

    def test_close_is_idempotent(self, db):
        manager = CheckpointManager(
            ObjectRepository(db), policy=NeverCheckpointPolicy(), writer=None
        )
        manager.close()
        manager.close()
