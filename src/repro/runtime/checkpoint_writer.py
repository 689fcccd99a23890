"""Asynchronous checkpoint serialization and object-store writes.

:class:`~repro.core.checkpoint.CheckpointManager` snapshots registered state
on the recording thread (cheap, bounded by a deep copy); this worker then
pickles the snapshot and writes it to the ``obj_store`` table off-thread.
The training loop's per-checkpoint cost becomes the snapshot alone, which is
what the adaptive policy should be (and now is) charged with.

``drain()`` is the ordering barrier: ``restore()``, ``commit()`` and
``close()`` take it before depending on stored checkpoints, so a replay that
skips to iteration *k* always finds the checkpoint saved at *k-1* even if it
was still in flight moments earlier.  Worker failures (an unpicklable
object, a broken store) are wrapped as :class:`CheckpointError` and
re-raised on the recording thread at the next ``submit``/``drain``/``close``.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from typing import Any, Callable

from ..errors import CheckpointError
from ..obs.metrics import MetricsRegistry, StatsView
from ..relational.records import ObjectRecord
from ..relational.repositories import ObjectRepository


#: ``AsyncCheckpointWriter.stats`` field → telemetry counter.
_STATS = {
    field: f"checkpoint.{field}"
    for field in (
        "submitted",
        "written",
        "errors",
        "backpressure_waits",
        "pickle_seconds",
        "write_seconds",
    )
}


class AsyncCheckpointWriter:
    """Pickle checkpoint payloads and write them to the store off-thread.

    ``key`` objects are duck-typed: anything carrying ``projid``, ``tstamp``,
    ``filename``, ``ctx_id`` and ``value_name`` attributes works (the
    manager passes its :class:`~repro.core.checkpoint.CheckpointKey`), which
    keeps this module free of a dependency on :mod:`repro.core`.

    Memory is bounded: each queued checkpoint holds a full deep-copied
    state snapshot, so :meth:`submit` blocks once ``max_pending`` snapshots
    are queued or in flight — a store slower than the checkpoint rate slows
    the loop down instead of accumulating model copies without limit.
    """

    def __init__(
        self,
        objects: ObjectRepository,
        name: str = "flor-ckpt-writer",
        max_pending: int = 4,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._objects = objects
        self.name = name
        self.max_pending = max_pending
        self.metrics = MetricsRegistry()
        self.stats = StatsView(self.metrics, _STATS)
        self._cond = threading.Condition()
        self._queue: "deque[tuple[Any, Any, Callable[[float, float], None] | None]]" = deque()
        self._inflight = 0
        self._thread: threading.Thread | None = None
        self._stop = False
        self._closed = False
        self._error: BaseException | None = None

    # ----------------------------------------------------------------- submit
    def submit(
        self,
        key: Any,
        state: Any,
        on_written: "Callable[[float, float], None] | None" = None,
    ) -> None:
        """Queue one checkpoint; ``on_written(pickle_s, write_s)`` runs after.

        Blocks while ``max_pending`` snapshots are already queued or in
        flight (bounded memory).  Deferred worker errors surface here too —
        before this submission is queued, so nothing is lost to the raise.
        """
        with self._cond:
            self._raise_pending_locked()
            if self._closed:
                raise CheckpointError("checkpoint writer is closed")
            blocked = False
            while len(self._queue) + self._inflight >= self.max_pending:
                if not blocked:
                    self.stats["backpressure_waits"].inc()
                    blocked = True
                self._cond.wait(0.1)
                self._raise_pending_locked()
                if self._closed:
                    raise CheckpointError("checkpoint writer is closed")
            self._queue.append((key, state, on_written))
            self.stats["submitted"].inc()
            self._ensure_worker_locked()
            self._cond.notify_all()

    # ------------------------------------------------------------------ drain
    def drain(self) -> None:
        """Block until every submitted checkpoint is stored (or failed)."""
        with self._cond:
            while self._queue or self._inflight:
                self._cond.wait(0.1)
            self._raise_pending_locked()

    def close(self) -> None:
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
        with self._cond:
            self._raise_pending_locked()

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._queue) + self._inflight

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
                key, state, on_written = self._queue.popleft()
                self._inflight = 1
            try:
                self._store(key, state, on_written)
            except BaseException as exc:  # noqa: BLE001 - surfaces on the recording thread
                with self._cond:
                    self.stats["errors"].inc()
                    if self._error is None:
                        self._error = exc
            finally:
                with self._cond:
                    self._inflight = 0
                    self._cond.notify_all()

    def _store(self, key: Any, state: Any, on_written: "Callable[[float, float], None] | None") -> None:
        started = time.perf_counter()
        try:
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(f"cannot serialize checkpoint objects: {exc}") from exc
        pickled = time.perf_counter()
        self._objects.put(
            ObjectRecord(
                projid=key.projid,
                tstamp=key.tstamp,
                filename=key.filename,
                ctx_id=key.ctx_id,
                value_name=key.value_name,
                contents=payload,
            )
        )
        wrote = time.perf_counter()
        self.stats["written"].inc()
        self.stats["pickle_seconds"].inc(pickled - started)
        self.stats["write_seconds"].inc(wrote - pickled)
        if on_written is not None:
            on_written(pickled - started, wrote - pickled)

    # ----------------------------------------------------------------- errors
    def _raise_pending_locked(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error
