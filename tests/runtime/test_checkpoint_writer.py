"""Checkpoint writes ride the background flusher: one writer thread per handle.

A :class:`CheckpointManager` snapshots on the recording thread and hands the
snapshot to the session's :class:`BackgroundFlusher`, which pickles it and
writes the ``obj_store`` row in the same transaction as the rows queued
beside it.  These tests pin the drain barrier, the cost split, the error
path, the snapshot bound and the one-thread, one-transaction-stream shape.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import threading
import time

import pytest

from repro import Session
from repro.core.checkpoint import (
    CheckpointKey,
    CheckpointManager,
    EveryIterationPolicy,
)
from repro.errors import CheckpointError
from repro.relational.database import Database
from repro.runtime import BackgroundFlusher
from repro.runtime.flusher import SNAPSHOTS_PER_BOUND
from repro.storage.faults import FaultyRelationalStore
from repro.testing import FaultPlan

TRANSACTION = "relational.transaction"


@pytest.fixture()
def db():
    with Database(":memory:") as database:
        yield database


def slow_store(db, seconds: float, transactions: int = 1) -> FaultyRelationalStore:
    """``db`` whose next ``transactions`` transactions stall ``seconds`` each."""
    plan = FaultPlan(seed=1, sleep=lambda _drawn: time.sleep(seconds))
    plan.force("slow", TRANSACTION, times=transactions)
    return FaultyRelationalStore(db, plan)


def gated_store(db, gate: threading.Event) -> FaultyRelationalStore:
    """``db`` whose next transaction waits for ``gate`` before it begins."""
    plan = FaultPlan(seed=1, sleep=lambda _drawn: gate.wait(5.0))
    plan.force("slow", TRANSACTION)
    return FaultyRelationalStore(db, plan)


def key(ctx_id: int) -> CheckpointKey:
    return CheckpointKey("p", "t1", "train.py", ctx_id, "epoch")


def log_row(i: int) -> tuple:
    return ("p", "t1", "train.py", i, "m", str(i), 0)


class Unpicklable:
    """Deep-copies fine; refuses to pickle."""

    def __deepcopy__(self, _memo):
        return Unpicklable()

    def __reduce__(self):
        raise TypeError("not today")


class CountsPickles:
    """Counts how many times it is pickled (a deep copy does not count)."""

    pickled = 0

    def __deepcopy__(self, _memo):
        return CountsPickles()

    def __getstate__(self):
        CountsPickles.pickled += 1
        return {}


class TestDrainBarrier:
    def test_restore_sees_in_flight_checkpoint(self, db):
        with BackgroundFlusher(slow_store(db, 0.05)) as flusher:
            manager = CheckpointManager(flusher)
            state = {"w": 1.0}
            manager.register({"state": state})
            manager.save(key(1))  # returns before the slow transaction commits
            state["w"] = 999.0
            # restore() drains first, so the checkpoint saved moments ago is
            # visible even though its transaction is still stalled.
            assert manager.restore(key(1)) is True
            assert state["w"] == 1.0

    def test_available_checkpoints_waits_for_in_flight_writes(self, db):
        with BackgroundFlusher(slow_store(db, 0.05)) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": {"w": 1}})
            manager.save(key(1))
            manager.save(key(2))
            assert manager.available_checkpoints("p", "t1", "train.py") == [(1, "epoch"), (2, "epoch")]

    def test_save_snapshots_before_later_mutations(self, db):
        with BackgroundFlusher(slow_store(db, 0.05)) as flusher:
            manager = CheckpointManager(flusher)
            state = {"w": 1.0}
            manager.register({"state": state})
            manager.save(key(1))
            state["w"] = 2.0  # mutated while the write is still in flight
            assert manager.load(key(1)) == {"state": {"w": 1.0}}


class TestCostAccounting:
    def test_sync_manager_splits_serialize_from_write(self, db):
        """Regression: the store write must not inflate the policy's cost;
        ``write_seconds`` is the pickle plus the transaction that carried it."""
        with BackgroundFlusher(slow_store(db, 0.08)) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": {"w": list(range(100))}})
            manager.save(key(1))
            flusher.drain()
            assert manager.saved == 1
            assert manager.serialize_seconds < 0.04
            assert manager.write_seconds >= 0.08
            stats = flusher.checkpoint_stats
            assert stats.submitted == stats.written == 1
            assert stats.write_seconds >= 0.08
            assert manager.write_seconds == pytest.approx(stats.pickle_seconds + stats.write_seconds)

    def test_async_manager_charges_only_the_snapshot_on_thread(self, db):
        with BackgroundFlusher(slow_store(db, 0.08)) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": {"w": 1}})
            started = time.perf_counter()
            manager.save(key(1))
            on_thread = time.perf_counter() - started
            assert on_thread < 0.04  # did not wait for the 80 ms transaction
            assert manager.serialize_seconds < 0.04
            flusher.drain()
            assert manager.write_seconds >= 0.08  # pickle + transaction, off-thread

    def test_policy_is_fed_the_on_thread_cost_only(self, db):
        class RecordingPolicy:
            def __init__(self):
                self.costs = []

            def should_checkpoint(self, iteration, iter_seconds, ckpt_seconds):
                self.costs.append(ckpt_seconds)
                return True

        policy = RecordingPolicy()
        with BackgroundFlusher(slow_store(db, 0.08)) as flusher:
            manager = CheckpointManager(flusher, policy=policy)
            manager.register({"state": {"w": 1}})
            manager.maybe_save(key(1), iteration=0, iter_seconds=0.01)
            flusher.drain()
            manager.maybe_save(key(2), iteration=1, iter_seconds=0.01)
        # The second decision sees the measured cost of the first save —
        # which excludes the pickle and the 80 ms transaction, both written
        # off-thread before that decision.
        assert manager.write_seconds >= 0.08
        assert policy.costs[1] < 0.04


class TestErrorSurfacing:
    def test_unpicklable_state_surfaces_at_drain(self, db):
        with BackgroundFlusher(db) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"bad": Unpicklable()})
            manager.save(key(1))  # the deep copy succeeds; the flusher pickles
            with pytest.raises(CheckpointError, match="cannot serialize"):
                flusher.drain()
            assert flusher.checkpoint_stats.errors == 1
            assert flusher.checkpoint_stats.written == 0
            assert db.count("obj_store") == 0

    def test_unpicklable_checkpoint_leaves_its_coalesced_rows_durable(self, db):
        gate = threading.Event()
        with BackgroundFlusher(gated_store(db, gate)) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"bad": Unpicklable()})
            flusher.submit([log_row(0)])
            time.sleep(0.05)  # the worker takes the first batch alone and waits
            flusher.submit([log_row(1), log_row(2)])
            manager.save(key(1))
            manager.register({"bad": {"w": 1}})
            manager.save(key(2))
            gate.set()
            with pytest.raises(CheckpointError):
                flusher.drain()
            # The rows queued beside the bad snapshot — and the good one —
            # committed in one transaction; only the bad checkpoint is gone.
            assert db.count("logs") == 3
            assert manager.available_checkpoints("p", "t1", "train.py") == [(2, "epoch")]
            assert flusher.stats.transactions == 2
            assert flusher.stats.max_coalesced_batches == 1
            assert flusher.checkpoint_stats.errors == 1
            assert flusher.checkpoint_stats.written == 1
            # Not a lost row: the drop counters and retries stay put.
            assert flusher.stats.dropped_rows == flusher.stats.dropped_batches == 0
            assert flusher.stats.write_retries == 0

    def test_a_retried_transaction_does_not_pickle_again(self, db):
        plan = FaultPlan(seed=1)
        plan.force("locked", TRANSACTION)  # the first attempt finds the db locked
        with BackgroundFlusher(FaultyRelationalStore(db, plan), retry_backoff=0.0) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": CountsPickles()})
            CountsPickles.pickled = 0
            manager.save(key(1))
            flusher.drain()
            assert flusher.stats.write_retries == 1
            assert CountsPickles.pickled == 1
            assert db.count("obj_store") == 1

    def test_a_dropped_transaction_counts_checkpoint_errors_not_rows(self, db):
        plan = FaultPlan(seed=1)
        plan.force("locked", TRANSACTION, times=3)
        with BackgroundFlusher(FaultyRelationalStore(db, plan), retry_backoff=0.0) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": {"w": 1}})
            manager.save(key(1))
            with pytest.raises(Exception, match="locked"):
                flusher.drain()
            assert flusher.checkpoint_stats.errors == 1
            assert flusher.stats.dropped_rows == 0
            assert db.count("obj_store") == 0

    def test_a_checkpoint_sqlite_refuses_leaves_its_coalesced_rows_durable(self, db):
        # A pickled state past the connection's length limit fails its
        # insert ("string or blob too big"), not its pickle.
        with db.transaction() as connection:
            connection.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, 4_096)
        gate = threading.Event()
        with BackgroundFlusher(gated_store(db, gate), retry_backoff=0.0) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": b"x" * 10_000})
            flusher.submit([log_row(0)])
            time.sleep(0.05)  # the worker takes the first batch alone and waits
            flusher.submit([log_row(1), log_row(2)])
            manager.save(key(1))
            gate.set()
            with pytest.raises(CheckpointError, match="too big"):
                flusher.drain()
            # The retries ran out on the checkpoint; the rows beside it got a
            # transaction of their own and committed.
            assert db.count("logs") == 3
            assert db.count("obj_store") == 0
            assert flusher.stats.write_retries == 2
            assert flusher.stats.dropped_rows == flusher.stats.dropped_batches == 0
            stats = flusher.checkpoint_stats
            assert (stats.submitted, stats.written, stats.errors) == (1, 0, 1)

    def test_save_after_close_writes_inline(self, db):
        flusher = BackgroundFlusher(db)
        manager = CheckpointManager(flusher)
        manager.register({"state": {"w": 1}})
        flusher.close()
        manager.save(key(1))  # a late save: pickled and written right here
        assert db.count("obj_store") == 1
        assert manager.load(key(1)) == {"state": {"w": 1}}
        manager.register({"state": Unpicklable()})
        with pytest.raises(CheckpointError):
            manager.save(key(2))  # its own failure, at the call site
        stats = flusher.checkpoint_stats
        assert (stats.submitted, stats.written, stats.errors) == (2, 1, 1)

    def test_close_is_idempotent(self, db):
        flusher = BackgroundFlusher(slow_store(db, 0.03))
        manager = CheckpointManager(flusher)
        manager.register({"state": {"w": 1}})
        manager.save(key(1))
        flusher.close()
        flusher.close()
        assert db.count("obj_store") == 1

    def test_backpressure_bounds_queued_snapshots(self, db):
        # Each queued checkpoint holds a full state copy; the bound keeps a
        # slow store from accumulating snapshots without limit.
        gate = threading.Event()
        with BackgroundFlusher(gated_store(db, gate)) as flusher:
            manager = CheckpointManager(flusher)
            manager.register({"state": {"w": 1}})
            for ctx_id in range(SNAPSHOTS_PER_BOUND):  # the first waits on the gate
                manager.save(key(ctx_id))
            assert flusher.checkpoint_stats.backpressure_waits == 0
            saved = threading.Event()

            def one_more() -> None:
                manager.save(key(SNAPSHOTS_PER_BOUND))
                saved.set()

            threading.Thread(target=one_more, daemon=True).start()
            assert not saved.wait(0.2)  # four snapshots fill the bound
            # Rows and snapshots share the one bound: a row waits too.
            row_queued = threading.Event()
            threading.Thread(
                target=lambda: (flusher.submit([log_row(0)]), row_queued.set()), daemon=True
            ).start()
            assert not row_queued.wait(0.1)
            gate.set()
            assert saved.wait(5.0) and row_queued.wait(5.0)
            flusher.drain()
            assert flusher.checkpoint_stats.backpressure_waits == 1
            assert flusher.stats.backpressure_waits == 1
            assert flusher.checkpoint_stats.written == SNAPSHOTS_PER_BOUND + 1
            assert flusher.pending_rows == 0

    def test_mixed_producers_release_every_row_and_snapshot(self, db):
        """Stress: rows and snapshots from more threads than cores, with a
        short switch interval; the shared bound must return to empty."""
        producers, rounds = 2 * (os.cpu_count() or 2), 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BackgroundFlusher(db, max_pending_rows=16) as flusher:
                manager = CheckpointManager(flusher)
                manager.register({"state": {"w": 1}})

                def produce(worker: int) -> None:
                    for i in range(rounds):
                        flusher.submit([log_row(worker * rounds + i)])
                        manager.save(key(worker * rounds + i))

                threads = [threading.Thread(target=produce, args=(w,), daemon=True) for w in range(producers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                flusher.drain()
                assert flusher.pending_rows == 0 and flusher._pending_weight == 0
        finally:
            sys.setswitchinterval(interval)
        total = producers * rounds
        assert db.count("logs") == db.count("obj_store") == total
        assert flusher.checkpoint_stats.written == flusher.stats.written_rows == total


def run_checkpointed_epochs(session, epochs: int = 3) -> None:
    state = {"w": 0}
    with session.checkpointing(state=state):
        for epoch in session.loop("epoch", range(epochs)):
            state["w"] = epoch
            session.log("loss", 1.0 / (epoch + 1))


class TestOneWriter:
    def test_a_checkpointing_session_runs_exactly_one_writer_thread(self, project):
        def writers() -> set[threading.Thread]:
            return {t for t in threading.enumerate() if t.name.startswith("flor-")}

        before = writers()
        with Session(
            project, default_filename="train.py", checkpoint_policy=EveryIterationPolicy()
        ) as session:
            run_checkpointed_epochs(session)
            session.flusher.drain()
            started = writers() - before
            assert session.checkpoints.saved == 3
        assert [thread.name for thread in started] == [session.flusher.name]

    def test_epoch_checkpoints_commit_inside_flusher_transactions(self, project):
        with Session(
            project, default_filename="train.py", checkpoint_policy=EveryIterationPolicy()
        ) as session:
            statements: list[tuple[str, str]] = []
            session.db._connection.set_trace_callback(
                lambda sql: statements.append((threading.current_thread().name, sql))
            )
            run_checkpointed_epochs(session, epochs=3)
            session.flush()
            session.db._connection.set_trace_callback(None)
            flushes = session.flusher.stats.transactions
            assert session.flusher.checkpoint_stats.written == 3

        inserts = [(thread, sql) for thread, sql in statements if "INTO obj_store" in sql]
        assert len(inserts) == 3
        # Every obj_store insert ran between a BEGIN and a COMMIT on the
        # thread that wrote it — the flusher's, or a draining caller's —
        # never as an autocommit statement of its own, and every
        # transaction that wrote rows or checkpoints is one of the
        # flusher's counted transactions.
        open_transaction: dict[str, bool] = {}
        wrote: dict[str, bool] = {}
        commits = 0
        for thread, sql in statements:
            if sql.startswith("BEGIN"):
                open_transaction[thread], wrote[thread] = True, False
            elif sql == "COMMIT":
                open_transaction[thread] = False
                commits += wrote.get(thread, False)
            elif any(f"INTO {table} " in sql for table in ("logs", "loops", "obj_store")):
                assert open_transaction.get(thread), sql
                wrote[thread] = True
        assert commits == flushes
        assert flushes <= 3 + 1  # at most one per epoch boundary, plus the final flush
