"""Flusher lifecycle tests: drains, flush-on-close, errors, backpressure."""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import pytest

from repro import ProjectConfig, Session
from repro.errors import DatabaseError
from repro.relational.database import CHECKPOINT_PAGES, Database
from repro.runtime import BackgroundFlusher, FlushCallbackError
from repro.runtime.flusher import DEFAULT_MAX_PENDING_ROWS


@pytest.fixture()
def db():
    with Database(":memory:") as database:
        yield database


def log_row(i: int) -> tuple:
    return ("p", "t1", "train.py", i, "m", str(i), 0)


def loop_row(i: int) -> tuple:
    return ("p", "t1", "train.py", i, 0, "epoch", i, str(i))


class StandIn:
    """The seam's WAL hook for the stand-ins below: no WAL, nothing to fold."""

    def checkpoint(self) -> bool:
        return False


class GatedDB(StandIn):
    """Database stand-in whose transactions block until released."""

    def __init__(self, real: Database):
        self.real = real
        self.gate = threading.Event()
        self.transactions = 0

    @contextmanager
    def transaction(self):
        self.gate.wait(5.0)
        self.transactions += 1
        with self.real.transaction() as connection:
            yield connection


class SteppedDB(StandIn):
    """Database stand-in that commits one transaction per ``step()``."""

    def __init__(self, real: Database):
        self.real = real
        self._permits = threading.Semaphore(0)

    def step(self, transactions: int = 1) -> None:
        self._permits.release(transactions)

    @contextmanager
    def transaction(self):
        self._permits.acquire(timeout=5.0)
        with self.real.transaction() as connection:
            yield connection


class TurnstileDB:
    """A file database whose transactions each announce themselves on
    ``entered``, then wait for one ``go``."""

    def __init__(self, real: Database):
        self.real = real
        self.entered = threading.Semaphore(0)
        self.go = threading.Semaphore(0)

    @contextmanager
    def transaction(self):
        self.entered.release()
        self.go.acquire(timeout=5.0)
        with self.real.transaction() as connection:
            yield connection

    def checkpoint(self) -> bool:
        return self.real.checkpoint()


class BrokenDB(StandIn):
    @contextmanager
    def transaction(self):
        raise RuntimeError("disk on fire")
        yield  # pragma: no cover


class FlakyDB(StandIn):
    """Fails the first ``failures`` transactions, then delegates to a real db."""

    def __init__(self, real: Database, failures: int = 1):
        self.real = real
        self.failures = failures
        self.attempts = 0

    @contextmanager
    def transaction(self):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise RuntimeError("database is locked")
        with self.real.transaction() as connection:
            yield connection


class TestSyncMode:
    """What is left of it: a submit after ``close()`` writes synchronously,
    on the caller's thread (late stragglers such as an atexit commit)."""

    @staticmethod
    def closed(db) -> BackgroundFlusher:
        flusher = BackgroundFlusher(db)
        flusher.close()
        return flusher

    def test_submit_writes_inline(self, db):
        flusher = self.closed(db)
        flusher.submit([log_row(0), log_row(1)], [loop_row(0)])
        assert db.count("logs") == 2
        assert db.count("loops") == 1
        assert flusher.stats.transactions == 1
        assert flusher.pending_rows == 0

    def test_inline_errors_raise_at_the_call_site(self):
        flusher = self.closed(BrokenDB())
        with pytest.raises(RuntimeError, match="disk on fire"):
            flusher.submit([log_row(0)])

    def test_on_written_called_with_batch_count(self, db):
        seen = []
        self.closed(db).submit([log_row(0)], [loop_row(0)], on_written=seen.append)
        assert seen == [2]


class TestAsyncMode:
    def test_drain_is_the_read_your_writes_barrier(self, db):
        flusher = BackgroundFlusher(db)
        flusher.submit([log_row(i) for i in range(10)])
        flusher.drain()
        assert db.count("logs") == 10
        assert flusher.pending_rows == 0
        flusher.close()

    def test_flush_on_close(self, db):
        flusher = BackgroundFlusher(db)
        flusher.submit([log_row(0)], [loop_row(0)])
        flusher.close()
        assert db.count("logs") == 1
        assert db.count("loops") == 1

    def test_submit_after_close_falls_back_to_inline(self, db):
        flusher = BackgroundFlusher(db)
        flusher.close()
        flusher.submit([log_row(0)])
        assert db.count("logs") == 1

    def test_batches_coalesce_into_one_transaction(self, db):
        gated = GatedDB(db)
        flusher = BackgroundFlusher(gated)
        for i in range(5):
            flusher.submit([log_row(i)])
        # The worker is stuck on the gate (or about to be); everything
        # submitted while it waits lands in one transaction.
        gated.gate.set()
        flusher.drain()
        assert db.count("logs") == 5
        assert gated.transactions <= 2  # first grab may or may not include all
        assert flusher.stats.max_coalesced_batches >= 2
        flusher.close()

    def test_on_written_runs_after_the_transaction_commits(self, db):
        counts_at_callback = []
        flusher = BackgroundFlusher(db)
        flusher.submit(
            [log_row(0)],
            on_written=lambda count: counts_at_callback.append((count, db.count("logs"))),
        )
        flusher.drain()
        assert counts_at_callback == [(1, 1)]
        flusher.close()


class TestErrorSurfacing:
    def test_transient_write_failure_is_retried_not_dropped(self, db):
        flaky = FlakyDB(db, failures=1)
        flusher = BackgroundFlusher(flaky, retry_backoff=0.01)
        flusher.submit([log_row(0), log_row(1)])
        flusher.drain()  # no error: the retry succeeded
        assert db.count("logs") == 2
        assert flusher.stats.write_retries == 1
        flusher.close()

    def test_persistent_write_failure_drops_after_retries(self, db):
        flaky = FlakyDB(db, failures=10)
        flusher = BackgroundFlusher(flaky, write_retries=2, retry_backoff=0.01)
        flusher.submit([log_row(0)])
        with pytest.raises(RuntimeError, match="database is locked"):
            flusher.drain()
        assert flaky.attempts == 3  # initial try + 2 retries
        flusher.close()

    def test_worker_error_surfaces_on_the_recording_thread(self, db):
        flusher = BackgroundFlusher(BrokenDB())
        flusher.submit([log_row(0)])
        with pytest.raises(RuntimeError, match="disk on fire"):
            flusher.drain()
        # The error is raised once; the flusher then keeps working.
        flusher.drain()
        flusher.close()

    def test_error_also_surfaces_at_close(self):
        flusher = BackgroundFlusher(BrokenDB())
        flusher.submit([log_row(0)])
        with pytest.raises(RuntimeError, match="disk on fire"):
            flusher.close()

    def test_callback_error_is_distinguishable_from_write_failure(self, db):
        flusher = BackgroundFlusher(db)
        flusher.close()  # inline: the error reaches the submitting call

        def bad_callback(_count):
            raise ValueError("cache invalidation broke")

        with pytest.raises(FlushCallbackError):
            flusher.submit([log_row(0)], on_written=bad_callback)
        assert db.count("logs") == 1  # the transaction still committed

    def test_one_failing_callback_does_not_skip_the_others(self, db):
        gated = GatedDB(db)
        flusher = BackgroundFlusher(gated)
        ran = []

        def bad_callback(_count):
            raise ValueError("first batch callback broke")

        flusher.submit([log_row(0)], on_written=bad_callback)
        flusher.submit([log_row(1)], on_written=lambda count: ran.append(count))
        gated.gate.set()  # both batches coalesce into one transaction
        with pytest.raises(FlushCallbackError):
            flusher.drain()
        assert ran == [1]  # the second batch's invalidation hook still ran
        assert db.count("logs") == 2
        flusher.close()


class TestBackpressure:
    def test_submit_blocks_at_the_bound(self, db):
        gated = GatedDB(db)
        flusher = BackgroundFlusher(gated, max_pending_rows=4)
        flusher.submit([log_row(i) for i in range(4)])  # worker picks this up, blocks
        time.sleep(0.05)

        unblocked = threading.Event()

        def second_submit():
            flusher.submit([log_row(i) for i in range(4, 8)])
            unblocked.set()

        thread = threading.Thread(target=second_submit, daemon=True)
        thread.start()
        # The second submit must be held back while 4 rows are in flight.
        assert not unblocked.wait(0.2)
        gated.gate.set()
        assert unblocked.wait(5.0)
        flusher.drain()
        assert db.count("logs") == 8
        assert flusher.stats.backpressure_waits >= 1
        flusher.close()

    def test_invalid_configuration_rejected(self, db):
        with pytest.raises(ValueError):
            BackgroundFlusher(db, max_pending_rows=0)


class TestDefaultBacklogBound:
    """The default bound is what every session and service shard runs with:
    it caps both resident rows and the size of one coalesced transaction."""

    BATCH = 64

    def batch(self, index: int) -> list[tuple]:
        return [log_row(index * self.BATCH + i) for i in range(self.BATCH)]

    def test_default_is_at_most_two_thousand_rows(self, db):
        flusher = BackgroundFlusher(db)
        assert flusher.max_pending_rows == DEFAULT_MAX_PENDING_ROWS
        assert self.BATCH < DEFAULT_MAX_PENDING_ROWS <= 2_048
        flusher.close()

    def test_four_producers_never_outgrow_the_bound(self, db):
        gated = GatedDB(db)
        flusher = BackgroundFlusher(gated)
        producers, batches = 4, 40  # 10,240 rows: ten times the bound
        peaks = []

        def produce(worker: int) -> None:
            peak = 0
            for b in range(batches):
                flusher.submit(self.batch(worker * batches + b))
                peak = max(peak, flusher.pending_rows)
            peaks.append(peak)

        threads = [threading.Thread(target=produce, args=(w,), daemon=True) for w in range(producers)]
        for thread in threads:
            thread.start()
        # The store is gated shut: every producer ends up parked at the bound.
        deadline = time.monotonic() + 5.0
        while flusher.stats.backpressure_waits < producers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert flusher.stats.backpressure_waits == producers
        parked = flusher.pending_rows
        assert DEFAULT_MAX_PENDING_ROWS - self.BATCH < parked <= DEFAULT_MAX_PENDING_ROWS
        assert gated.transactions == 0

        gated.gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        flusher.drain()  # still the read-your-writes barrier
        total = producers * batches * self.BATCH
        assert db.count("logs") == flusher.stats.written_rows == total
        assert max(peaks) <= DEFAULT_MAX_PENDING_ROWS + self.BATCH
        # Several bounded writes, not one giant one.
        assert flusher.stats.transactions >= total // DEFAULT_MAX_PENDING_ROWS >= 2
        flusher.close()

    def test_blocked_submit_resumes_after_a_single_transaction(self, db):
        stepped = SteppedDB(db)
        flusher = BackgroundFlusher(stepped)
        filling = DEFAULT_MAX_PENDING_ROWS // self.BATCH
        flusher.submit(self.batch(0))
        time.sleep(0.05)  # the worker takes the first batch alone, waits on the store
        for index in range(1, filling):
            flusher.submit(self.batch(index))
        assert flusher.pending_rows == DEFAULT_MAX_PENDING_ROWS

        resumed = threading.Event()

        def one_more() -> None:
            flusher.submit(self.batch(filling))
            resumed.set()

        thread = threading.Thread(target=one_more, daemon=True)
        thread.start()
        assert not resumed.wait(0.2)  # full: held back
        stepped.step()  # one 64-row transaction commits ...
        assert resumed.wait(5.0)  # ... and that is all the producer waited for
        assert flusher.stats.transactions == 1
        assert flusher.stats.backpressure_waits == 1

        stepped.step(10)
        flusher.drain()
        # What queued behind it coalesced (the late batch may miss that
        # swap and ride alone); no write was larger than the bound.
        assert flusher.stats.transactions in (2, 3)
        assert flusher.stats.max_coalesced_batches * self.BATCH <= DEFAULT_MAX_PENDING_ROWS
        assert db.count("logs") == DEFAULT_MAX_PENDING_ROWS + self.BATCH
        flusher.close()

    def test_failed_writes_free_the_backlog_and_surface_at_drain(self):
        flusher = BackgroundFlusher(BrokenDB(), write_retries=0)
        batches = 3 * DEFAULT_MAX_PENDING_ROWS // self.BATCH
        for index in range(batches):
            flusher.submit(self.batch(index))  # never raises, never deadlocks at the bound
        with pytest.raises(RuntimeError, match="disk on fire"):
            flusher.drain()
        assert flusher.stats.dropped_rows == batches * self.BATCH
        assert flusher.pending_rows == 0
        flusher.close()


class TestWalCheckpoints:
    """The worker checkpoints the WAL after a transaction's waiters are
    released — never inside a commit a producer waits for."""

    BIG = "x" * 3_000

    def wal_bytes(self, db: Database) -> int:
        try:
            return os.path.getsize(f"{db.path}-wal")
        except FileNotFoundError:
            return 0

    def threshold_bytes(self, db: Database) -> int:
        return 32 + CHECKPOINT_PAGES * (db.query_one("PRAGMA page_size")[0] + 24)

    def big_rows(self, first: int, count: int) -> list[tuple]:
        return [("p", "t1", "train.py", i, "blob", self.BIG, 0) for i in range(first, first + count)]

    def test_commit_returns_before_the_checkpoint_does(self, tmp_path, monkeypatch):
        session = Session(ProjectConfig(tmp_path / "proj", "p"), default_filename="train.py")
        db = session.db
        statements: list[str] = []
        db._connection.set_trace_callback(statements.append)
        started, release, returned = threading.Event(), threading.Event(), threading.Event()
        checkpoint = db.checkpoint

        def gated() -> bool:
            if self.wal_bytes(db) >= self.threshold_bytes(db):
                started.set()
                release.wait(10.0)
            return checkpoint()

        def rounds() -> None:
            # Commit rounds until one leaves the WAL past the threshold.
            while self.wal_bytes(db) < self.threshold_bytes(db):
                for _ in range(100):
                    session.log("blob", self.BIG)
                session.commit()
            returned.set()

        monkeypatch.setattr(db, "checkpoint", gated)
        recorder = threading.Thread(target=rounds, daemon=True)
        recorder.start()
        try:
            assert started.wait(5.0)  # the checkpoint is due, and held at the gate...
            assert returned.wait(2.0)  # ...while the commit that made it due returned
            assert session.flusher.stats.wal_checkpoints == 0
            release.set()
            deadline = time.monotonic() + 5.0
            while session.flusher.stats.wal_checkpoints == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session.flusher.stats.wal_checkpoints == 1
            assert not [s for s in statements if "wal_checkpoint" in s], statements
        finally:
            release.set()
            recorder.join(15.0)
            session.close()
        assert not os.path.exists(f"{db.path}-wal")

    def test_a_never_idle_writer_keeps_the_wal_under_twice_the_threshold(self, tmp_path):
        """Each batch is queued while the one before it is in flight, so no
        transaction ends on an empty queue: there is no idle turn to wait for."""
        db = Database(tmp_path / "flor.db")
        turnstile = TurnstileDB(db)
        flusher = BackgroundFlusher(turnstile)
        sizes: list[int] = []
        batches, rows = 60, 50

        def submit(index: int) -> None:
            flusher.submit(
                self.big_rows(index * rows, rows),
                on_written=lambda _count: sizes.append(self.wal_bytes(db)),
            )

        try:
            submit(0)
            for index in range(1, batches + 1):
                assert turnstile.entered.acquire(timeout=5.0)  # batch index - 1 in flight
                if index < batches:
                    submit(index)
                turnstile.go.release()
            flusher.drain()
            assert db.count("logs") == batches * rows
            assert flusher.stats.transactions == batches
            assert flusher.stats.wal_checkpoints >= 3
            assert max(sizes) < 2 * self.threshold_bytes(db)
            assert flusher.metrics.snapshot()["counters"]["flush.checkpoints"] == flusher.stats.wal_checkpoints
        finally:
            flusher.close()
            db.close()

    def test_a_failed_checkpoint_costs_no_row_and_raises_nowhere(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "flor.db")

        def broken() -> bool:
            raise DatabaseError("WAL checkpoint failed: disk I/O error")

        monkeypatch.setattr(db, "checkpoint", broken)
        flusher = BackgroundFlusher(db)
        try:
            for index in range(20):
                assert flusher.submit(self.big_rows(index * 100, 100)) == 100
                flusher.drain()
            assert db.count("logs") == 2_000
            assert flusher.stats.dropped_rows == 0
            assert flusher.stats.wal_checkpoints == 0
        finally:
            flusher.close()
            db.close()
