"""A drain on an idle writer writes on the caller's thread.

``BackgroundFlusher.drain`` takes what is queued while no transaction is in
flight and writes it itself, through the same transaction path as the
writer thread; only a transaction already in flight is waited for.  These
tests pin where the write runs, that the one-writer rule keeps FIFO order
and exactly-once across the thread and any number of drainers, that
errors, retries and callbacks behave as on the thread, that backpressure
and ``close()`` still hold, and that a WAL checkpoint a caller's write made
due still runs on the writer thread.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.relational.database import Database
from repro.runtime import BackgroundFlusher, FlushCallbackError


def log_row(i: int) -> tuple:
    return ("p", "t1", "train.py", i, "m", str(i), 0)


@pytest.fixture()
def db():
    with Database(":memory:") as database:
        yield database


class Parked:
    """A store whose writer thread parks in its first pass (the WAL
    checkpoint) until ``release`` is set, so every write is a caller's.
    Records the thread of each transaction attempt."""

    def __init__(self, real: Database):
        self.real = real
        self.release = threading.Event()
        self.threads: list[str] = []

    def checkpoint(self) -> bool:
        self.release.wait(10.0)
        return False

    def checkpoint_due(self) -> bool:
        return False

    @contextmanager
    def transaction(self):
        self.threads.append(threading.current_thread().name)
        with self.real.transaction() as connection:
            yield connection


class ParkedFlaky(Parked):
    """Fails the first ``failures`` transaction attempts."""

    def __init__(self, real: Database, failures: int):
        super().__init__(real)
        self.failures = failures

    @contextmanager
    def transaction(self):
        self.threads.append(threading.current_thread().name)
        if len(self.threads) <= self.failures:
            raise RuntimeError("database is locked")
        with self.real.transaction() as connection:
            yield connection


class ParkedGated(Parked):
    """Holds each transaction until ``gate`` is set; ``entered`` says one
    is waiting there."""

    def __init__(self, real: Database):
        super().__init__(real)
        self.gate = threading.Event()
        self.entered = threading.Event()

    @contextmanager
    def transaction(self):
        self.entered.set()
        self.gate.wait(5.0)
        with super().transaction() as connection:
            yield connection


@contextmanager
def parked_flusher(store: Parked, **options):
    flusher = BackgroundFlusher(store, **options)
    try:
        yield flusher
    finally:
        store.release.set()
        flusher.close()


class TestCallerRuns:
    def test_a_drain_on_an_idle_writer_writes_on_the_calling_thread(self, tmp_path):
        db = Database(tmp_path / "flor.db")
        flusher = BackgroundFlusher(db)
        try:
            flusher.submit([log_row(0)])
            flusher.drain()
            time.sleep(0.1)  # the writer thread parks on an empty queue
            statements: list[tuple[str, str]] = []
            db._connection.set_trace_callback(
                lambda sql: statements.append((threading.current_thread().name, sql))
            )
            before = flusher.stats.transactions
            flusher.submit([log_row(1), log_row(2)], wake=False)
            flusher.drain()
            db._connection.set_trace_callback(None)
            assert flusher.stats.transactions == before + 1
            assert db.count("logs") == 3
            caller = threading.current_thread().name
            kinds = [sql.split()[0] for thread, sql in statements if thread == caller]
            assert kinds[0] == "BEGIN" and kinds[-1] == "COMMIT", statements
            assert kinds.count("BEGIN") == kinds.count("COMMIT") == 1
            assert not [sql for thread, sql in statements if thread != caller]
        finally:
            flusher.close()
            db.close()

    def test_what_was_queued_beside_the_callers_batch_rides_its_transaction(self, db):
        store = Parked(db)
        written = []
        with parked_flusher(store) as flusher:
            flusher.submit([log_row(0)], on_written=written.append)
            flusher.submit([log_row(1), log_row(2)], on_written=written.append, wake=False)
            flusher.drain()
            assert store.threads == [threading.current_thread().name]
            assert flusher.stats.transactions == 1
            assert flusher.stats.max_coalesced_batches == 2
            assert written == [1, 2]  # callbacks in queue order, on the caller
            assert flusher.pending_rows == 0


class TestCallerRunsErrors:
    def test_a_failing_transaction_is_retried_dropped_counted_and_raised_here(self, db):
        store = ParkedFlaky(db, failures=10)
        with parked_flusher(store, write_retries=2, retry_backoff=0.001) as flusher:
            flusher.submit([log_row(0), log_row(1)], wake=False)
            with pytest.raises(RuntimeError, match="database is locked"):
                flusher.drain()
            assert store.threads == [threading.current_thread().name] * 3
            assert flusher.stats.write_retries == 2
            assert flusher.stats.dropped_batches == 1
            assert flusher.stats.dropped_rows == 2
            assert flusher.pending_rows == 0
            flusher.drain()  # raised once
            assert db.count("logs") == 0

    def test_an_interrupted_caller_write_rolls_back_and_is_not_retried(self, db):
        """Ctrl-C lands on the thread that drains: its half-done transaction
        must neither commit later nor be written twice by a retry."""

        class Interrupted(Parked):
            @contextmanager
            def transaction(self):
                self.threads.append(threading.current_thread().name)
                with self.real.transaction() as connection:
                    yield connection
                    if len(self.threads) == 1:  # rows inserted, not yet committed
                        raise KeyboardInterrupt

        store = Interrupted(db)
        with parked_flusher(store, retry_backoff=0.001) as flusher:
            flusher.submit([log_row(0), log_row(1)], wake=False)
            with pytest.raises(KeyboardInterrupt):
                flusher.drain()
            assert len(store.threads) == 1
            assert flusher.stats.write_retries == 0
            assert flusher.stats.dropped_rows == 2
            flusher.submit([log_row(2)], wake=False)
            flusher.drain()
            assert [row[0] for row in db.query("SELECT ctx_id FROM logs")] == [2]

    def test_a_transient_failure_is_retried_on_the_caller_and_lands(self, db):
        store = ParkedFlaky(db, failures=1)
        with parked_flusher(store, retry_backoff=0.001) as flusher:
            flusher.submit([log_row(0)], wake=False)
            flusher.drain()
            assert db.count("logs") == 1
            assert flusher.stats.write_retries == 1
            assert flusher.stats.dropped_rows == 0

    def test_a_callback_failure_raises_once_and_rows_are_not_rewritten(self, db):
        store = Parked(db)
        calls = []

        def broken(count: int) -> None:
            calls.append(count)
            raise ValueError("cache invalidation broke")

        with parked_flusher(store) as flusher:
            flusher.submit([log_row(0)], on_written=broken, wake=False)
            with pytest.raises(FlushCallbackError):
                flusher.drain()
            flusher.drain()
            assert calls == [1]
            assert len(store.threads) == 1
            assert flusher.stats.transactions == 1
            assert flusher.stats.write_retries == 0
            assert db.count("logs") == 1


class TestCallerRunsConcurrency:
    def test_close_racing_a_drain(self, db):
        for round_ in range(20):
            db.execute("DELETE FROM logs")
            flusher = BackgroundFlusher(db)
            for batch in range(5):
                flusher.submit([log_row(batch * 10 + i) for i in range(10)], wake=False)
            start = threading.Barrier(2)
            errors: list[BaseException] = []

            def run(action) -> None:
                start.wait(5.0)
                try:
                    action()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(action,), daemon=True)
                for action in (flusher.drain, flusher.close)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive(), f"round {round_} hung"
            assert errors == []
            assert flusher.closed and flusher.pending_rows == 0
            assert db.count("logs") == 50, f"round {round_}"
            assert flusher.stats.written_rows == 50

    def test_backpressure_bounds_pending_rows_while_a_caller_writes(self, db):
        store = ParkedGated(db)
        with parked_flusher(store, max_pending_rows=4) as flusher:
            flusher.submit([log_row(i) for i in range(4)], wake=False)
            drainer = threading.Thread(target=flusher.drain, daemon=True)
            drainer.start()
            assert store.entered.wait(5.0)  # the caller's transaction is in flight
            unblocked = threading.Event()

            def second_submit() -> None:
                flusher.submit([log_row(i) for i in range(4, 8)])
                unblocked.set()

            producer = threading.Thread(target=second_submit, daemon=True)
            producer.start()
            assert not unblocked.wait(0.2)  # held back behind the caller's 4 rows
            assert flusher.pending_rows == 4
            store.gate.set()
            assert unblocked.wait(5.0)
            drainer.join(5.0)
            flusher.drain()
            assert db.count("logs") == 8
            assert flusher.stats.backpressure_waits == 1
            assert set(store.threads) <= {drainer.name, threading.current_thread().name}


class TestCallerRunsStress:
    """Producers submit numbered batches while other threads drain at drawn
    points: every row lands once, and each producer's rows commit in the
    order it submitted them, whichever thread wrote them."""

    PRODUCERS, BATCHES, DRAINERS, DRAINS = 4, 40, 2, 25

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fifo_and_exactly_once_across_the_writer_and_drainers(self, tmp_path, seed):
        db = Database(tmp_path / "flor.db")
        flusher = BackgroundFlusher(db, max_pending_rows=64)
        submitted = [0] * self.PRODUCERS
        errors: list[BaseException] = []

        def guarded(body):
            def run(*args) -> None:
                try:
                    body(*args)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            return run

        @guarded
        def produce(producer: int) -> None:
            draw = random.Random(seed * 100 + producer)
            for batch in range(self.BATCHES):
                size = draw.randint(1, 8)
                first = (producer * self.BATCHES + batch) * 10
                flusher.submit([log_row(first + i) for i in range(size)], wake=draw.random() < 0.7)
                submitted[producer] += size
                if draw.random() < 0.2:
                    flusher.drain()

        @guarded
        def drain(drainer: int) -> None:
            draw = random.Random(seed * 100 + 50 + drainer)
            for _ in range(self.DRAINS):
                time.sleep(draw.random() * 0.002)
                flusher.drain()

        threads = [threading.Thread(target=produce, args=(p,)) for p in range(self.PRODUCERS)]
        threads += [threading.Thread(target=drain, args=(d,)) for d in range(self.DRAINERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings between the checks and the swaps
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            sys.setswitchinterval(interval)
            flusher.drain()
            assert errors == []
            ctx_ids = [row[0] for row in db.query("SELECT ctx_id FROM logs ORDER BY seq")]
            assert len(ctx_ids) == len(set(ctx_ids)) == sum(submitted)
            assert flusher.stats.written_rows == sum(submitted)
            per_producer = {p: [] for p in range(self.PRODUCERS)}
            for ctx_id in ctx_ids:
                per_producer[ctx_id // 10 // self.BATCHES].append(ctx_id)
            for producer, seen in per_producer.items():
                assert seen == sorted(seen), f"producer {producer} committed out of order"
            assert flusher.pending_rows == 0
        finally:
            sys.setswitchinterval(interval)
            flusher.close()
            db.close()


class TestCallerRunsWal:
    BIG = "x" * 3_000

    def test_a_checkpoint_a_callers_write_made_due_runs_on_the_writer_thread(self, tmp_path):
        db = Database(tmp_path / "flor.db")
        checkpoint = db.checkpoint
        checkpoint()  # takes checkpoints over from SQLite's commits, as a first pass does
        release = threading.Event()
        calls: list[str] = []

        def recorded() -> bool:
            calls.append(threading.current_thread().name)
            if len(calls) == 1:  # the thread's first pass parks: writes are the caller's
                release.wait(10.0)
                return False
            return checkpoint()

        db.checkpoint = recorded
        statements: list[tuple[str, str]] = []
        db._connection.set_trace_callback(
            lambda sql: statements.append((threading.current_thread().name, sql))
        )
        flusher = BackgroundFlusher(db)
        try:
            for index in range(100):
                rows = [("p", "t1", "train.py", index * 100 + i, "blob", self.BIG, 0) for i in range(100)]
                flusher.submit(rows, wake=False)
                flusher.drain()
                if db.checkpoint_due():
                    break
            assert db.checkpoint_due(), "the WAL never reached CHECKPOINT_PAGES"
            assert flusher.stats.transactions == index + 1
            assert {thread for thread, _ in statements} == {threading.current_thread().name}
            assert flusher.stats.wal_checkpoints == 0
            release.set()  # the drain that made it due woke the thread for it
            deadline = time.monotonic() + 5.0
            while flusher.stats.wal_checkpoints == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert flusher.stats.wal_checkpoints == 1
            assert calls == [flusher.name, flusher.name]
            assert not [sql for _, sql in statements if "wal_checkpoint" in sql]
        finally:
            release.set()
            flusher.close()
            db.close()
