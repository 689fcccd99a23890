"""Double-buffered writer for staged rows and checkpoints.

One :class:`BackgroundFlusher` serves one :class:`~repro.relational.database.
Database` handle, with one writer at a time: its thread, or a draining caller.
Producers call :meth:`submit` with staged row tuples (from
:meth:`~repro.runtime.buffer.RecordBuffer.drain_rows`, or built by
:func:`~repro.runtime.buffer.log_row` for a keyed append) and
:meth:`submit_checkpoint` with a deep-copied checkpoint snapshot; the
writer takes *every* entry queued since the last transaction (the
double-buffer swap into ``_inflight``, the writer's token), encodes the
deferred values of its rows, pickles the snapshots among them, and writes it
all in a single SQLite transaction.  Under a flush-heavy workload this
coalescing collapses N small transactions into a handful of large ones (the
T10 speedup): SQLite's per-transaction bookkeeping dwarfs an extra row.

Semantics (one transaction path, whichever thread runs it):

* **drain()** is the read-your-writes barrier: it returns once every
  submitted row and checkpoint is durable (or raises what prevented it).
  It waits only for a transaction in flight and writes what is queued
  itself — no thread hop; taken in queue order, commits stay FIFO.
* **backpressure**: submitters block once ``max_pending_rows`` rows
  (:data:`DEFAULT_MAX_PENDING_ROWS` unless a caller says otherwise) are
  queued or in flight, bounding memory under a writer that cannot keep up.
  A queued snapshot weighs ``max_pending_rows // SNAPSHOTS_PER_BOUND`` rows.
  The writer takes everything queued per transaction, so the same number
  caps a coalesced transaction: a blocked producer waits for one short
  write, never behind a giant one.
* **errors** raised by a write (or by ``on_written`` callbacks) are
  captured and re-raised on the *recording* thread at the next ``drain`` or
  ``close`` (never from a queueing ``submit`` — a submit that raised after
  accepting its batch, or before queueing it, would leave the caller unable
  to tell whether those rows are owed a retry).  After ``write_retries``
  the failed transaction's rows are dropped and counted — by then the
  producer has moved on, so requeueing could only retry forever.
* **values** a row still defers (:data:`~repro.runtime.buffer.DEFERRED`)
  are encoded in the pass that collects the transaction's rows, before it
  opens and once: a retry reuses the rows.  Only scalars whose encoding
  cannot fail are deferred (:func:`~repro.runtime.buffer.log_row`).
* **keys**: a batch submitted under an idempotency key inserts the key in
  its transaction and writes its rows only if the insert took, so a key
  already committed, or met earlier in the same transaction, skips them —
  and a dropped transaction rolls its keys back with its rows, leaving a
  retry free to land.
* **checkpoints** are pickled by the writer before the transaction opens,
  outside both locks, and once: a retried transaction reuses the bytes.  A
  snapshot that cannot be pickled is dropped alone — it counts in
  ``checkpoint.errors``, surfaces as a :class:`~repro.errors.CheckpointError`
  at the next drain, and the rows beside it still commit.  Once a
  transaction's retries run out, its checkpoints drop and its rows try once
  more alone.
* **on_written** callbacks run after their entry's transaction commits (the
  query cache's invalidation hook relies on this ordering), on the writing
  thread: one must not take a lock a drainer may hold (a shard's lock).
* **WAL checkpoints** are the thread's, never inside a commit; a drainer's
  write only probes for a due one and wakes the thread (``_wake``) for it.
* **close()** drains outstanding entries and stops the thread; a submit
  after it writes inline on the caller's thread, raising its own failure at
  the call site, so late stragglers (atexit commits) still land.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from typing import Any, Callable, NamedTuple, Sequence

from ..errors import CheckpointError, ReproError
from ..obs.metrics import Counter, MetricsRegistry, StatsView
from ..storage.protocols import RelationalStore
from ..relational.records import encode_value
from ..relational.repositories import (
    INSERT_APPEND_KEY_SQL,
    INSERT_LOG_SQL,
    INSERT_LOOP_SQL,
    INSERT_OBJECT_SQL,
    PRUNE_APPEND_KEYS_SQL,
)
from .buffer import DEFERRED

#: Rows one flusher may hold (queued + in flight) before ``submit`` blocks.
#: Per database handle — a service pool of 8 shards holds at most 8× this.
#: Sized on the perf ledger's ``ingest_bulk`` (80 rows per POST): the serve
#: process's resident memory reads 53 MB with producers throttled to 3k
#: rows/s and 54 MB unthrottled at this bound, against 56 MB at 2,048,
#: 57 MB at 4,096 and 154 MB at the former 100,000; ingest throughput is
#: flat from 512 to 4,096 and a third lower at 100,000.
DEFAULT_MAX_PENDING_ROWS = 1_024

#: Whole-state snapshots that fill the backlog bound on their own: each
#: queued checkpoint weighs ``max_pending_rows // SNAPSHOTS_PER_BOUND`` rows.
SNAPSHOTS_PER_BOUND = 4


class FlushCallbackError(ReproError):
    """An ``on_written`` callback raised *after* its transaction committed.

    Distinct from a write failure so callers (``Session.flush``) know the
    rows are durable — retrying the write would duplicate them.
    """


class _Rows(NamedTuple):
    """One queued row submission; ``on_written(count)`` runs after its commit.
    A keyed one lands once: its rows are skipped when its ``key`` has."""

    log_rows: Sequence[tuple]
    loop_rows: Sequence[tuple]
    on_written: "Callable[[int], None] | None"
    count: int
    key: str | None = None


class _Checkpoint(NamedTuple):
    """One queued snapshot; ``on_written(pickle_s, write_s)`` runs after its commit."""

    key: tuple  # obj_store key columns: projid, tstamp, filename, ctx_id, value_name
    state: Any
    on_written: "Callable[[float, float], None] | None"


#: A pickled checkpoint: (obj_store row, on_written, pickle seconds).
_Pickled = tuple[tuple, "Callable[[float, float], None] | None", float]


def _insert_rows(batches: "list[_Rows]") -> tuple[list[tuple], list[tuple]]:
    """The INSERT parameters of ``batches``: their rows in one list per
    table, each deferred value encoded on the way."""
    log_rows = [
        (projid, tstamp, filename, ctx_id, name, *encode_value(value))
        if value_type is DEFERRED
        else (projid, tstamp, filename, ctx_id, name, value, value_type)
        for batch in batches
        for projid, tstamp, filename, ctx_id, name, value, value_type in batch.log_rows
    ]
    return log_rows, [row for batch in batches for row in batch.loop_rows]


#: The INSERT parameters of a transaction, in queue order: ``(key, log_rows,
#: loop_rows)`` for each keyed batch and for each run of unkeyed ones.
_Segments = list[tuple["str | None", list[tuple], list[tuple]]]


def _segments(batches: "list[_Rows]") -> _Segments:
    runs: list[list[_Rows]] = []
    for batch in batches:
        if batch.key is None and runs and runs[-1][-1].key is None:
            runs[-1].append(batch)
        else:
            runs.append([batch])
    return [(run[0].key, *_insert_rows(run)) for run in runs]


#: ``BackgroundFlusher.stats`` field → telemetry counter.
_STATS = {
    "submitted_batches": "flush.submitted_batches",
    "submitted_rows": "flush.submitted_rows",
    "transactions": "flush.transactions",
    "written_rows": "flush.rows",
    "max_coalesced_batches": None,  # this flusher's high-water mark
    "backpressure_waits": "flush.backpressure_waits",
    "write_retries": "flush.write_retries",
    "dropped_batches": "flush.dropped_batches",
    "dropped_rows": "flush.dropped_rows",
    "wal_checkpoints": "flush.checkpoints",
}

#: ``BackgroundFlusher.checkpoint_stats`` field → telemetry counter.
#: ``backpressure_waits`` counts checkpoint submits that blocked, and
#: ``write_seconds`` the transactions that carried checkpoints.
_CHECKPOINT_STATS = {
    field: f"checkpoint.{field}"
    for field in ("submitted", "written", "errors", "backpressure_waits", "pickle_seconds", "write_seconds")
}


class BackgroundFlusher:
    """Drain staged rows and checkpoints to SQLite off the recording thread.

    Parameters
    ----------
    db:
        Destination database.  The writer writes through the same handle the
        session reads from, so ``Database.write_version`` staleness probes
        keep working.
    max_pending_rows:
        Backpressure bound: submit blocks while this many rows are already
        queued or in flight (a single larger submission is still admitted
        once nothing else is pending).
    write_retries / retry_backoff:
        The writer retries a failed transaction this many times (after
        ``retry_backoff`` seconds each) before dropping the batch and
        recording the error — a transient ``SQLITE_BUSY`` from a concurrent
        process should not cost acknowledged rows.  Callback failures are
        never retried (their transaction already committed).
    """

    def __init__(
        self,
        db: RelationalStore,
        *,
        max_pending_rows: int = DEFAULT_MAX_PENDING_ROWS,
        write_retries: int = 2,
        retry_backoff: float = 0.05,
        name: str = "flor-flusher",
    ):
        if max_pending_rows < 1:
            raise ValueError(f"max_pending_rows must be >= 1, got {max_pending_rows}")
        if write_retries < 0:
            raise ValueError(f"write_retries must be >= 0, got {write_retries}")
        self.db = db
        self.max_pending_rows = max_pending_rows
        self.write_retries = write_retries
        self.retry_backoff = retry_backoff
        self.name = name
        #: This flusher's scope; its owner (the session) attaches it upward.
        self.metrics = MetricsRegistry()
        self.stats = StatsView(self.metrics, _STATS)
        self.checkpoint_stats = StatsView(self.metrics, _CHECKPOINT_STATS)
        self._snapshot_rows = max(1, max_pending_rows // SNAPSHOTS_PER_BOUND)
        lock = threading.RLock()
        self._cond = threading.Condition(lock)  # drainers and blocked submitters
        self._wake = threading.Condition(lock)  # the writer thread, only when it has work
        self._queue: "deque[_Rows | _Checkpoint]" = deque()
        self._pending_rows = 0  # queued + in-flight rows
        self._pending_weight = 0  # ... plus _snapshot_rows per snapshot (the bound)
        self._inflight: "list[_Rows | _Checkpoint]" = []
        self._thread: threading.Thread | None = None
        self._stop = False
        self._wal_due = False  # a caller's write left a WAL checkpoint due
        self._closed = False
        self._error: BaseException | None = None

    # ------------------------------------------------------------- inspection
    @property
    def pending_rows(self) -> int:
        """Rows submitted but not yet durable."""
        with self._cond:
            return self._pending_rows

    @property
    def closed(self) -> bool:
        return self._closed

    # ----------------------------------------------------------------- submit
    def submit(
        self,
        log_rows: Sequence[tuple] = (),
        loop_rows: Sequence[tuple] = (),
        on_written: "Callable[[int], None] | None" = None,
        wake: bool = True,
        key: str | None = None,
    ) -> int:
        """Hand a batch of rows to the writer; returns the row count.

        Returns as soon as the batch is queued (or after blocking on
        backpressure) and never raises deferred writer errors — those
        surface at :meth:`drain`/:meth:`close`, where no batch is in hand to
        be lost or double-submitted.  ``wake=False`` is for a caller whose
        :meth:`drain` follows: the thread sleeps on.  Under a ``key`` the
        rows land once: the transaction that inserts the key writes them,
        and one that finds it already there skips them.  A submit after
        :meth:`close` writes inline, raising its own failure at the call site.
        """
        count = len(log_rows) + len(loop_rows)
        if self._closed:
            self._raise_pending()
        if not count:
            return 0
        self.stats["submitted_batches"].inc()
        self.stats["submitted_rows"].inc(count)
        batch = _Rows(log_rows, loop_rows, on_written, count, key)
        if self._closed:
            self._write([batch], _segments([batch]), [])
        else:
            self._enqueue(batch, count, count, self.stats["backpressure_waits"], wake)
        return count

    def submit_checkpoint(
        self, key: tuple, state: Any, on_written: "Callable[[float, float], None] | None" = None
    ) -> None:
        """Queue a snapshot under its ``obj_store`` key columns; blocks and
        writes inline like :meth:`submit`.  The writer pickles ``state`` and,
        once its transaction commits, calls ``on_written(pickle_s, write_s)``."""
        checkpoint = _Checkpoint(key, state, on_written)
        self.checkpoint_stats["submitted"].inc()
        if self._closed:
            self._raise_pending()
            self._write([], [], [self._pickle(checkpoint)])
        else:
            self._enqueue(checkpoint, 0, self._snapshot_rows, self.checkpoint_stats["backpressure_waits"])

    def _enqueue(self, entry: "_Rows | _Checkpoint", rows: int, weight: int, waits: Counter, wake=True) -> None:
        with self._cond:
            blocked = False
            while self._pending_weight and self._pending_weight + weight > self.max_pending_rows:
                if not blocked:
                    waits.inc()
                    blocked = True
                # The timeout is a safety net only; the writer notifies after
                # every transaction (including failed ones, which free rows).
                self._cond.wait(0.1)
            self._queue.append(entry)
            self._pending_rows += rows
            self._pending_weight += weight
            self._ensure_worker_locked()
            if wake:
                self._wake.notify()

    # ------------------------------------------------------------------ drain
    def drain(self) -> None:
        """Block until every submitted row and checkpoint is durable; re-raise
        writer errors.  Writes on this thread what no transaction in flight holds."""
        while True:
            with self._cond:
                while self._inflight:
                    self._cond.wait(0.1)
                if not self._queue:
                    self._raise_pending_locked()
                    return
                entries = self._inflight = list(self._queue)  # the swap, as on the thread
                self._queue.clear()
            self._write_entries(entries)
            try:
                due = self.db.checkpoint_due()  # the checkpoint itself is the thread's
            except Exception:  # noqa: BLE001 - a store without a WAL to read
                due = False
            if due:
                with self._cond:
                    self._wal_due = True
                    self._wake.notify()

    def close(self) -> None:
        """Drain, stop the worker, and fall back to inline writes thereafter."""
        with self._cond:
            if self._closed:
                self._raise_pending_locked()
                return
            self._closed = True
            self._stop = True
            thread = self._thread
            self._wake.notify()
        if thread is not None and thread.is_alive():
            thread.join()
        self.drain()  # a caller's transaction still in flight, or a straggler's entry

    # ----------------------------------------------------------------- worker
    def _ensure_worker_locked(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._run, name=self.name, daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while True:
            # Takes WAL checkpoints over, then runs each due after a write or a drainer's wake.
            try:
                if self.db.checkpoint():
                    self.stats["wal_checkpoints"].inc()
            except Exception:  # noqa: BLE001 - the WAL keeps every row; the next pass retries
                pass
            with self._cond:
                while self._inflight or not (self._queue or self._wal_due or self._stop):
                    self._wake.wait()
                if self._stop and not self._queue:
                    return
                self._wal_due = False
                # Double-buffer swap: what is queued becomes the one writer's token.
                entries = self._inflight = list(self._queue)
                self._queue.clear()
            if entries:
                self._write_entries(entries)

    def _write_entries(self, entries: "list[_Rows | _Checkpoint]") -> None:
        """Write ``entries`` in one transaction and release them — the one
        path of the writer thread and of a draining caller alike."""
        batches = [entry for entry in entries if isinstance(entry, _Rows)]
        rows = sum(batch.count for batch in batches)
        try:
            # Encoded and pickled once, before the transaction: a retry
            # reuses both, and a snapshot that will not pickle drops alone.
            segments = _segments(batches)
            pickled = []
            for entry in entries:
                if isinstance(entry, _Checkpoint):
                    try:
                        pickled.append(self._pickle(entry))
                    except CheckpointError as exc:
                        self._defer(exc)
            attempts = 0
            while True:
                try:
                    self._write(batches, segments, pickled)
                    break
                except FlushCallbackError as exc:
                    # The transaction committed; retrying would duplicate
                    # every row.  Record the callback failure and move on.
                    self._defer(exc)
                    break
                except BaseException as exc:  # noqa: BLE001 - retried, then surfaced
                    attempts += 1
                    if attempts <= self.write_retries and isinstance(exc, Exception):  # not an interrupt
                        self.stats["write_retries"].inc()
                        time.sleep(self.retry_backoff)
                    elif pickled:
                        # The checkpoints may be what failed (a state past
                        # SQLite's length limit): the rows try once more alone.
                        self.checkpoint_stats["errors"].inc(len(pickled))
                        self._defer(CheckpointError(f"cannot write checkpoint: {exc}"))
                        pickled = []
                        if not batches:
                            break
                    else:
                        with self._cond:
                            self._error = self._error or exc
                            # Monotone drop counters, bumped before the rows
                            # are released below: the deferred error goes to
                            # the first drain, but an observer (/stats, the
                            # chaos seal protocol) can still tell that
                            # acknowledged rows were lost on this handle.
                            self.stats["dropped_batches"].inc(len(batches))
                            self.stats["dropped_rows"].inc(rows)
                        break
        finally:
            with self._cond:
                self._pending_rows -= rows
                self._pending_weight -= rows + (len(entries) - len(batches)) * self._snapshot_rows
                self._inflight = []
                self._cond.notify_all()
                if self._queue or self._stop or self._wal_due:
                    self._wake.notify()

    def _pickle(self, checkpoint: _Checkpoint) -> _Pickled:
        started = time.perf_counter()
        try:
            contents = pickle.dumps(checkpoint.state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            self.checkpoint_stats["errors"].inc()
            raise CheckpointError(f"cannot serialize checkpoint objects: {exc}") from exc
        seconds = time.perf_counter() - started
        self.checkpoint_stats["pickle_seconds"].inc(seconds)
        return (*checkpoint.key, contents), checkpoint.on_written, seconds

    def _write(self, batches: "list[_Rows]", segments: _Segments, pickled: "list[_Pickled]") -> None:
        seconds = 0.0
        if segments or pickled:
            started = time.perf_counter()
            written = 0
            with self.db.transaction() as connection:
                for key, log_rows, loop_rows in segments:
                    if key is not None and not connection.execute(INSERT_APPEND_KEY_SQL, (key,)).rowcount:
                        continue  # landed before, or earlier in this transaction
                    if log_rows:
                        connection.executemany(INSERT_LOG_SQL, log_rows)
                    if loop_rows:
                        connection.executemany(INSERT_LOOP_SQL, loop_rows)
                    written += len(log_rows) + len(loop_rows)
                if any(key is not None for key, _, _ in segments):
                    connection.execute(PRUNE_APPEND_KEYS_SQL)
                if pickled:
                    connection.executemany(INSERT_OBJECT_SQL, [row for row, _, _ in pickled])
            seconds = time.perf_counter() - started
            self.metrics.observe("flush.ms", seconds * 1000.0)
            self.stats["transactions"].inc()
            self.stats["written_rows"].inc(written)
            if pickled:
                self.checkpoint_stats["written"].inc(len(pickled))
                self.checkpoint_stats["write_seconds"].inc(seconds)
            high_water = self.stats["max_coalesced_batches"]
            if len(batches) > high_water.value:
                high_water.set(len(batches))
            self.metrics.set("flush.pending_rows", self.pending_rows)
        # Every callback runs even if an earlier one raised: a skipped
        # callback is a skipped query-cache invalidation for rows that *did*
        # commit, which would serve stale views indefinitely.  The first
        # error is re-raised afterwards, wrapped so callers can tell "write
        # failed" (retryable) from "post-commit callback failed" (not).
        callbacks = [(batch.on_written, (batch.count,)) for batch in batches]
        callbacks += [(on_written, (pickle_s, seconds)) for _row, on_written, pickle_s in pickled]
        callback_error: BaseException | None = None
        for on_written, args in callbacks:
            if on_written is not None:
                try:
                    on_written(*args)
                except BaseException as exc:  # noqa: BLE001 - isolate callbacks
                    if callback_error is None:
                        callback_error = exc
        if callback_error is not None:
            raise FlushCallbackError(
                f"on_written callback failed after commit: {callback_error}"
            ) from callback_error

    # ----------------------------------------------------------------- errors
    def _defer(self, error: BaseException) -> None:
        """Keep the first writer error for the next drain to raise."""
        with self._cond:
            self._error = self._error or error

    def _raise_pending(self) -> None:
        with self._cond:
            self._raise_pending_locked()

    def _raise_pending_locked(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "BackgroundFlusher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
