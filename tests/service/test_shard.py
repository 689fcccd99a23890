"""Tests for the shard's hand-off policy over the session's record buffer.

Service appends and ``Session.log`` share one staging buffer and one
flusher; :class:`ProjectShard` only decides *when* the buffer is handed
off (size, interval, explicit barrier).  These are the behaviours the
separate ingestion queue used to own.
"""

from __future__ import annotations

import pytest

from repro.config import ProjectConfig
from repro.core.session import Session
from repro.runtime import FlushCallbackError
from repro.service.pool import DatabasePool, ProjectShard

TSTAMP = "2025-01-01T00:00:00"
#: The two ways a flusher writes: on its worker thread, and — once closed —
#: synchronously on the caller's thread (late stragglers).  The hand-off
#: policy must count the same on both.
ASYNC, SYNC = "async", "sync"
BOTH_MODES = pytest.mark.parametrize("write_path", [SYNC, ASYNC])


def _log(i: int) -> tuple:
    return (TSTAMP, "load.py", i, "m", i)


def _loop(i: int) -> tuple:
    return (TSTAMP, "load.py", i, 0, "epoch", i, str(i))


@pytest.fixture()
def make_shard(tmp_path):
    shards = []

    def make(write_path: str = ASYNC, **policy) -> ProjectShard:
        session = Session(ProjectConfig(tmp_path / "svc", "svc"), default_filename="service")
        if write_path == SYNC:
            session.flusher.close()
        policy.setdefault("flush_interval", None)
        shards.append(ProjectShard("svc", session, **policy))
        return shards[-1]

    yield make
    for shard in shards:
        shard.close()


def _broken_transaction():
    raise RuntimeError("disk on fire")


def _durable(shard: ProjectShard, table: str) -> int:
    """Rows of ``table`` once the flusher has written everything handed to it."""
    shard.session.flusher.drain()
    return shard.session.db.count(table)


class TestSizeTrigger:
    @BOTH_MODES
    def test_below_threshold_stays_pending(self, make_shard, write_path):
        shard = make_shard(write_path, flush_size=4)
        assert shard.append([_log(0), _log(1)]) is False
        assert shard.pending == 2
        assert _durable(shard, "logs") == 0

    @BOTH_MODES
    def test_reaching_threshold_hands_off(self, make_shard, write_path):
        shard = make_shard(write_path, flush_size=4)
        shard.append([_log(0), _log(1)])
        assert shard.append([_log(2), _log(3)]) is True
        assert shard.pending == 0
        assert _durable(shard, "logs") == 4
        assert shard.ingest["size_flushes"] == 1
        assert shard.ingest["appended"] == 4
        assert shard.session.flusher.stats.written_rows == 4

    def test_flush_size_one_is_the_unbatched_baseline(self, make_shard):
        shard = make_shard(flush_size=1)
        for i in range(3):
            assert shard.append([_log(i)]) is True
            shard.flush()  # barrier, or the flusher coalesces the hand-offs
        assert shard.session.db.count("logs") == 3
        assert shard.session.flusher.stats.transactions == 3

    def test_logs_and_loops_count_toward_the_same_threshold(self, make_shard):
        shard = make_shard(flush_size=2)
        assert shard.append([_log(0)], [_loop(0)]) is True
        shard.flush()
        assert shard.session.db.count("logs") == 1
        assert shard.session.db.count("loops") == 1

    def test_invalid_flush_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="flush_size"):
            DatabasePool(tmp_path, flush_size=0)


class TestIntervalTrigger:
    def test_elapsed_interval_hands_off_on_append(self, make_shard):
        now = [0.0]
        shard = make_shard(flush_size=100, flush_interval=1.0, clock=lambda: now[0])
        assert shard.append([_log(0)]) is False
        now[0] = 2.0
        assert shard.append([_log(1)]) is True
        assert _durable(shard, "logs") == 2
        assert shard.ingest["interval_flushes"] == 1
        # The hand-off restarts the interval.
        assert shard.append([_log(2)]) is False

    def test_interval_disabled_never_time_flushes(self, make_shard):
        now = [0.0]
        shard = make_shard(flush_size=100, flush_interval=None, clock=lambda: now[0])
        shard.append([_log(0)])
        now[0] = 1e9
        assert shard.append([_log(1)]) is False
        assert shard.pending == 2


class TestExplicitFlush:
    @BOTH_MODES
    def test_flush_drains_everything(self, make_shard, write_path):
        shard = make_shard(write_path, flush_size=100)
        shard.append([_log(0), _log(1)], [_loop(0)])
        assert shard.flush() == 3
        assert shard.pending == 0
        # No drain here: flush() itself is the durability barrier.
        assert shard.session.db.count("logs") == 2
        assert shard.session.db.count("loops") == 1
        assert shard.ingest["explicit_flushes"] == 1

    def test_flush_on_empty_shard_is_a_noop(self, make_shard):
        shard = make_shard(flush_size=100)
        assert shard.flush() == 0
        assert shard.ingest["explicit_flushes"] == 0
        assert shard.session.flusher.stats.transactions == 0

    @BOTH_MODES
    def test_one_transaction_per_flush(self, make_shard, write_path, monkeypatch):
        shard = make_shard(write_path, flush_size=100)
        shard.append([_log(i) for i in range(10)], [_loop(0)])
        db = shard.session.db
        calls = []
        original = db.transaction

        def counting_transaction():
            calls.append(1)
            return original()

        monkeypatch.setattr(db, "transaction", counting_transaction)
        shard.flush()
        assert len(calls) == 1  # logs AND loops inside a single transaction
        assert db.count("logs") == 10
        assert db.count("loops") == 1

    def test_explicit_flush_drains_earlier_hand_offs(self, make_shard):
        shard = make_shard(ASYNC, flush_size=2)
        assert shard.append([_log(0), _log(1)]) is True  # handed off, not awaited
        shard.append([_log(2)])
        assert shard.flush() == 1  # only one row was still staged...
        assert shard.session.db.count("logs") == 3  # ...but all three are durable

    def test_failed_inline_write_keeps_rows_for_a_retry(self, make_shard, monkeypatch):
        shard = make_shard(SYNC, flush_size=100)
        shard.append([_log(0), _log(1)])
        db = shard.session.db
        monkeypatch.setattr(db, "transaction", _broken_transaction)
        with pytest.raises(RuntimeError):
            shard.flush()
        monkeypatch.undo()
        assert shard.pending == 2
        assert shard.ingest["explicit_flushes"] == 0  # the failed one is not counted
        assert shard.flush() == 2
        assert db.count("logs") == 2  # retried once, no duplicates

    def test_failed_size_hand_off_keeps_rows_too(self, make_shard, monkeypatch):
        shard = make_shard(SYNC, flush_size=2)
        db = shard.session.db
        monkeypatch.setattr(db, "transaction", _broken_transaction)
        with pytest.raises(RuntimeError):
            shard.append([_log(0), _log(1)])
        monkeypatch.undo()
        assert shard.pending == 2
        assert shard.flush() == 2
        assert db.count("logs") == 2


class TestPostCommitHook:
    def test_hook_error_does_not_requeue_committed_rows(self, make_shard):
        """Regression: requeueing after a post-commit callback failure
        duplicated every row of the batch on the next flush."""
        shard = make_shard(SYNC, flush_size=100)

        def broken_hook(_count):
            raise ValueError("hook broke")

        shard.session.on_rows_written = broken_hook
        shard.append([_log(0), _log(1)])
        with pytest.raises(FlushCallbackError, match="hook broke"):
            shard.flush()
        assert shard.pending == 0  # durable rows were NOT restored
        assert shard.session.db.count("logs") == 2
        shard.session.on_rows_written = None
        shard.append([_log(2)])
        shard.flush()
        assert shard.session.db.count("logs") == 3  # no duplicates

    def test_deferred_hook_error_does_not_drop_later_batches(self, make_shard):
        """Regression: a deferred callback error raised during a later
        submit dropped the batch that submit was carrying."""
        shard = make_shard(ASYNC, flush_size=2)
        calls = [0]

        def flaky_hook(_count):
            calls[0] += 1
            if calls[0] == 1:
                raise ValueError("hook broke once")

        shard.session.on_rows_written = flaky_hook
        shard.append([_log(0), _log(1)])  # batch 1: hook will raise post-commit
        shard.append([_log(2), _log(3)])  # batch 2: must not be lost
        shard.append([_log(4)])
        with pytest.raises(FlushCallbackError, match="hook broke once"):
            shard.flush()  # the drain surfaces the deferred callback error
        assert _durable(shard, "logs") == 5  # every appended row is durable

    @BOTH_MODES
    def test_hook_fires_only_after_rows_are_visible(self, make_shard, write_path):
        shard = make_shard(write_path, flush_size=2)
        db = shard.session.db
        observed = []
        shard.session.on_rows_written = lambda count: observed.append(
            (count, db.count("logs"))
        )
        shard.append([_log(0), _log(1)])
        shard.session.flusher.drain()
        # Tail wake-ups and cache invalidation run only once the batch is committed.
        assert observed == [(2, 2)]
