"""Double-buffered background writer for staged log/loop rows.

One :class:`BackgroundFlusher` serves one :class:`~repro.relational.database.
Database` handle.  Producers call :meth:`submit` with insert-ready row tuples
(from :meth:`~repro.runtime.buffer.RecordBuffer.drain_rows` or
``record.as_row()``); the worker thread wakes, takes *every* batch queued
since its last transaction (the double-buffer swap), and writes them all in
a single SQLite transaction.  Under a flush-heavy workload this coalescing
collapses N small transactions into a handful of large ones, which is where
the T10 speedup comes from — SQLite's per-transaction bookkeeping dwarfs the
marginal cost of an extra ``executemany`` row.

Semantics (one mode — every handle writes through its worker):

* **drain()** is the read-your-writes barrier: it returns only once every
  submitted row is durable (or raises the error that prevented it).
* **backpressure**: submitters block once ``max_pending_rows`` rows
  (:data:`DEFAULT_MAX_PENDING_ROWS` unless a caller says otherwise) are
  queued or in flight, bounding memory under a writer that cannot keep up.
  The worker takes everything queued per transaction, so the same number
  caps a coalesced transaction: a blocked producer waits for one short
  write, never behind a giant one.
* **errors** raised by the worker (or by ``on_written`` callbacks) are
  captured and re-raised on the *recording* thread at the next ``drain`` or
  ``close`` (never from a queueing ``submit`` — a submit that raised after
  accepting its batch, or before queueing it, would leave the caller unable
  to tell whether those rows are owed a retry).  The rows of the failed
  transaction are dropped — by then the producer has moved on, so
  requeueing could only retry forever.
* **on_written** callbacks run after their batch's transaction commits (the
  query cache's invalidation hook relies on this ordering).
* **close()** drains outstanding batches and stops the worker; a submit
  after it writes inline on the caller's thread, raising its own failure at
  the call site, so late stragglers (atexit commits) still land.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry, StatsView
from ..storage.protocols import RelationalStore
from ..relational.repositories import INSERT_LOG_SQL, INSERT_LOOP_SQL

#: Rows one flusher may hold (queued + in flight) before ``submit`` blocks.
#: Per database handle — a service pool of 8 shards holds at most 8× this.
#: Sized on the perf ledger's ``ingest_bulk`` (80 rows per POST): the serve
#: process's resident memory reads 53 MB with producers throttled to 3k
#: rows/s and 54 MB unthrottled at this bound, against 56 MB at 2,048,
#: 57 MB at 4,096 and 154 MB at the former 100,000; ingest throughput is
#: flat from 512 to 4,096 and a third lower at 100,000.
DEFAULT_MAX_PENDING_ROWS = 1_024


class FlushCallbackError(ReproError):
    """An ``on_written`` callback raised *after* its transaction committed.

    Distinct from a write failure so callers (``Session.flush``) know the
    rows are durable — retrying the write would duplicate them.
    """

#: One queued submission: (log_rows, loop_rows, on_written, row_count).
_Batch = tuple[Sequence[tuple], Sequence[tuple], "Callable[[int], None] | None", int]


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
}


class BackgroundFlusher:
    """Drain staged rows to SQLite off the recording thread.

    Parameters
    ----------
    db:
        Destination database.  The worker writes through the same handle the
        session reads from, so ``Database.write_version`` staleness probes
        keep working.
    max_pending_rows:
        Backpressure bound: submit blocks while this many rows are already
        queued or in flight (a single larger submission is still admitted
        once nothing else is pending).
    write_retries / retry_backoff:
        The worker retries a failed transaction this many times (after
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
        self._cond = threading.Condition()
        self._queue: "deque[_Batch]" = deque()
        self._pending_rows = 0  # queued + in-flight rows (memory bound)
        self._inflight = 0
        self._thread: threading.Thread | None = None
        self._stop = False
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
    ) -> int:
        """Hand a batch of rows to the writer; returns the row count.

        Returns as soon as the batch is queued (or after blocking on
        backpressure) and never raises deferred worker errors — those
        surface at :meth:`drain`/:meth:`close`, where no batch is in hand to
        be lost or double-submitted.  A submit after :meth:`close` writes
        inline, raising this batch's own failure at the call site.
        """
        count = len(log_rows) + len(loop_rows)
        if self._closed:
            self._raise_pending()
            if count:
                self.stats["submitted_batches"].inc()
                self.stats["submitted_rows"].inc(count)
                self._write([(log_rows, loop_rows, on_written, count)])
            return count
        with self._cond:
            if not count:
                return 0
            blocked = False
            while self._pending_rows and self._pending_rows + count > self.max_pending_rows:
                if not blocked:
                    self.stats["backpressure_waits"].inc()
                    blocked = True
                # The timeout is a safety net only; the worker notifies after
                # every transaction (including failed ones, which free rows).
                self._cond.wait(0.1)
            self._queue.append((log_rows, loop_rows, on_written, count))
            self._pending_rows += count
            self.stats["submitted_batches"].inc()
            self.stats["submitted_rows"].inc(count)
            self._ensure_worker_locked()
            self._cond.notify_all()
        return count

    # ------------------------------------------------------------------ drain
    def drain(self) -> None:
        """Block until every submitted row is durable; re-raise worker errors."""
        with self._cond:
            while self._queue or self._inflight:
                self._cond.wait(0.1)
            self._raise_pending_locked()

    def close(self) -> None:
        """Drain, stop the worker, and fall back to inline writes thereafter."""
        with self._cond:
            if self._closed:
                self._raise_pending_locked()
                return
            self._closed = True
            self._stop = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None and thread.is_alive():
            thread.join()
        self._raise_pending()

    # ----------------------------------------------------------------- worker
    def _ensure_worker_locked(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._run, name=self.name, daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if not self._queue and self._stop:
                    return
                # Double-buffer swap: take everything queued since the last
                # transaction and write it in one go.
                batches = list(self._queue)
                self._queue.clear()
                self._inflight = sum(batch[3] for batch in batches)
            try:
                attempts = 0
                while True:
                    try:
                        self._write(batches)
                        break
                    except FlushCallbackError as exc:
                        # The transaction committed; retrying would duplicate
                        # every row.  Record the callback failure and move on.
                        with self._cond:
                            if self._error is None:
                                self._error = exc
                        break
                    except BaseException as exc:  # noqa: BLE001 - retried, then surfaced
                        attempts += 1
                        if attempts > self.write_retries:
                            with self._cond:
                                if self._error is None:
                                    self._error = exc
                                # Monotone drop counters, bumped before the
                                # rows are released below: the deferred error
                                # is consumed by whichever drain surfaces it
                                # first, but any observer (the service's
                                # /stats endpoint, the chaos harness's seal
                                # protocol) can still tell that acknowledged
                                # rows were lost on this handle.
                                self.stats["dropped_batches"].inc(len(batches))
                                self.stats["dropped_rows"].inc(self._inflight)
                            break
                        self.stats["write_retries"].inc()
                        time.sleep(self.retry_backoff)
            finally:
                with self._cond:
                    self._pending_rows -= self._inflight
                    self._inflight = 0
                    self._cond.notify_all()

    def _write(self, batches: "list[_Batch]") -> None:
        log_rows = [row for batch in batches for row in batch[0]]
        loop_rows = [row for batch in batches for row in batch[1]]
        if log_rows or loop_rows:
            started = time.perf_counter()
            with self.db.transaction() as connection:
                if log_rows:
                    connection.executemany(INSERT_LOG_SQL, log_rows)
                if loop_rows:
                    connection.executemany(INSERT_LOOP_SQL, loop_rows)
            self.metrics.observe("flush.ms", (time.perf_counter() - started) * 1000.0)
            self.stats["transactions"].inc()
            self.stats["written_rows"].inc(len(log_rows) + len(loop_rows))
            high_water = self.stats["max_coalesced_batches"]
            if len(batches) > high_water.value:
                high_water.set(len(batches))
            self.metrics.set("flush.pending_rows", self.pending_rows)
        # Every batch's callback runs even if an earlier one raised: a skipped
        # callback is a skipped query-cache invalidation for rows that *did*
        # commit, which would serve stale views indefinitely.  The first
        # error is re-raised afterwards, wrapped so callers can tell "write
        # failed" (retryable) from "post-commit callback failed" (not).
        callback_error: BaseException | None = None
        for _logs, _loops, on_written, count in batches:
            if on_written is not None and count:
                try:
                    on_written(count)
                except BaseException as exc:  # noqa: BLE001 - isolate callbacks
                    if callback_error is None:
                        callback_error = exc
        if callback_error is not None:
            raise FlushCallbackError(
                f"on_written callback failed after commit: {callback_error}"
            ) from callback_error

    # ----------------------------------------------------------------- errors
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
