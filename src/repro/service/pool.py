"""Sharded database pool: one SQLite database per project, LRU-capped.

Multi-tenant FlorDB keeps tenants physically separate — each project name
maps to ``<root>/<name>/.flor/flor.db`` — so one noisy tenant never
contends on another tenant's database file and a shard can be backed up or
dropped independently (the "one metadata home per project" layout of
:mod:`repro.config`, multiplied).

Open handles are cached in an :class:`~collections.OrderedDict` used as an
LRU: :meth:`DatabasePool.get` moves the shard to the hot end, and opening a
shard beyond ``capacity`` closes the coldest one.  Closing flushes the
shard's staged rows first, so eviction never loses acknowledged records —
a re-opened shard sees everything that was appended before eviction
(exercised by the pool tests).

A tenant's views outlive its handle: a cleanly closed shard leaves its
pivot cache to the next incarnation, whose first read re-checks it by
watermark instead of rebuilding it from the whole tenant.  Until then a
read of the closed tenant whose database file is still as the close left it
(:meth:`DatabasePool.read_at_rest`) is answered from those views without
opening SQLite at all.

Appended rows wait in exactly one place: the shard session's
:class:`~repro.runtime.RecordBuffer`, the same buffer ``Session.log``
stages into.  SQLite pays a fixed cost per committed transaction that
dwarfs one extra ``executemany`` row, so :meth:`ProjectShard.append` hands
the buffer to the session's flusher only by size or interval, and
:meth:`ProjectShard.flush` is the explicit read-your-writes barrier.

Concurrency model: the pool dict is guarded by a pool-level lock; each
shard carries its own :class:`threading.RLock` that request handlers hold
for the duration of one operation.  Eviction also takes the shard lock, so
an in-flight request finishes before its shard closes.  A handler that
loses the race (its shard is closed between lookup and lock acquisition)
observes ``shard.closed`` and retries the lookup — see
:meth:`DatabasePool.checkout`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..config import ProjectConfig
from ..core.session import Session
from ..obs.metrics import MetricsRegistry, StatsView
from ..query import PivotViewCache
from ..relational.repositories import append_key_landed

#: Filename stamped on records that arrive without one; mirrors how the
#: feedback webapp stamps ``app.py`` on human-in-the-loop records.
SERVICE_FILENAME = "service"


#: ``DatabasePool.stats`` field → telemetry counter.  ``evictions`` counts
#: closes that succeeded; a shard whose close failed is reinstated, not evicted.
#: ``rest_hits`` counts reads a closed tenant's kept views answered.
_STATS = {
    field: f"pool.{field}"
    for field in ("hits", "misses", "evictions", "reopens", "rest_hits")
}


@dataclass(frozen=True)
class _Detached:
    """A cleanly closed tenant: its pivot cache, and its file as the close left it."""

    cache: PivotViewCache
    projid: str
    #: The handle's ``write_version`` after the final flush: a view checked
    #: at it still holds while the file is unchanged.
    write_version: int
    #: The file's identity at the close (None: it was not at rest) ...
    identity: tuple[int, ...] | None
    #: ... and how to take it again.
    at_rest: Callable[[], tuple[int, ...] | None]


class ProjectShard:
    """One open tenant: a session, its hand-off policy and a lock.

    ``clock`` is the monotonic time source behind the interval trigger,
    injectable so tests drive it deterministically.
    """

    def __init__(
        self,
        name: str,
        session: Session,
        *,
        flush_size: int = 64,
        flush_interval: float | None = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self.session = session
        self.flush_size = flush_size
        self.flush_interval = flush_interval
        self.clock = clock
        #: The ``ingest`` block of ``GET /projects/<name>/stats``.
        self.ingest = {
            "appended": 0,
            "size_flushes": 0,
            "interval_flushes": 0,
            "explicit_flushes": 0,
        }
        self._last_handoff = clock()
        self.lock = threading.RLock()
        self.closed = False
        #: ``session.db.write_version`` after the final flush of :meth:`close`.
        self.closed_version = -1

    @property
    def pending(self) -> int:
        """Rows staged in the session's buffer, not yet handed to the flusher.

        Rows already submitted to the flusher are tracked by the
        flusher's own ``pending_rows``, not here.
        """
        return self.session.pending_log_records + self.session.pending_loop_records

    def append(self, logs: Sequence[tuple] = (), loops: Sequence[tuple] = ()) -> bool:
        """Stage rows (see :meth:`Session.stage`); True when handed off.

        A hand-off is due once ``flush_size`` rows are staged
        (``flush_size=1`` is the unbatched baseline T8 compares against) or
        ``flush_interval`` seconds passed since the last one — checked only
        here, so an idle shard holds its tail rows until the next append or
        barrier.  It does not wait for the write: the rows ride the
        background flusher and the request thread moves on.
        Call with the shard lock held (:meth:`DatabasePool.checkout`) — the
        session's buffer is not thread-safe on its own.
        """
        self.session.stage(logs, loops)
        self.ingest["appended"] += len(logs) + len(loops)
        if self.pending >= self.flush_size:
            trigger = "size_flushes"
        elif (
            self.flush_interval is not None
            and self.clock() - self._last_handoff >= self.flush_interval
        ):
            trigger = "interval_flushes"
        else:
            return False
        self._hand_off(trigger, wait=False)
        return True

    def append_keyed(self, key: str, logs: Sequence[tuple] = (), loops: Sequence[tuple] = ()) -> bool:
        """Hand rows to the writer now under an idempotency ``key`` (see
        :meth:`Session.submit_keyed`); False, staging nothing, when a batch
        under ``key`` already committed.

        A batch still queued or in flight is not found here: its retry is
        queued too, and the writer skips whichever lands second.  Call with
        the shard lock held, like :meth:`append`.
        """
        if append_key_landed(self.session.db, key):
            return False
        self.session.submit_keyed(key, logs, loops)
        self.ingest["appended"] += len(logs) + len(loops)
        self._last_handoff = self.clock()
        return True

    def flush(self) -> int:
        """Make every staged row durable now; returns how many were staged.

        The read-your-writes barrier: it returns only once every row —
        including earlier size/interval hand-offs still riding the
        background flusher — is committed, and it is where a deferred
        flusher error surfaces.
        """
        with self.lock:
            return self._hand_off("explicit_flushes", wait=True)

    def _hand_off(self, trigger: str, *, wait: bool) -> int:
        count = self.pending
        # A failed inline write leaves the rows staged (Session.flush
        # restores them) and this hand-off uncounted, so a later one retries.
        self.session.flush(wait=wait)
        self._last_handoff = self.clock()
        if count:
            self.ingest[trigger] += 1
        return count

    def close(self) -> None:
        """Flush pending records, then release the database handle."""
        with self.lock:
            if self.closed:
                return
            self.flush()
            self.closed_version = self.session.db.write_version
            self.session.close()
            self.closed = True


class DatabasePool:
    """An LRU-capped cache of :class:`ProjectShard` handles under one root.

    Parameters
    ----------
    root:
        Directory holding one project subdirectory per tenant.
    capacity:
        Maximum number of open shards (SQLite handles), and of detached views.
    flush_size / flush_interval:
        Hand-off policy for appended rows, set on every shard the pool
        opens (see :meth:`ProjectShard.append`).
    backend:
        ``"sqlite"`` (default) stores each shard at
        ``<root>/<name>/.flor/flor.db``; ``"memory"`` builds shards on
        :mod:`repro.storage.memory` backends — zero disk I/O, with shard
        state retained across LRU evictions inside the pool (an evicted
        in-memory shard would otherwise lose its data on close).
    shard_factory:
        ``(name) -> ProjectShard`` hook replacing how a shard's session is
        built (the chaos harness wraps its stores in faults).  The pool
        still applies its policy values, hooks and metrics to the result.
    metrics:
        The :class:`repro.obs.MetricsRegistry` the pool counts its own
        hit/miss/evict churn in and attaches every shard session's scope
        to, so per-shard counts also sum across tenants; a private one
        when omitted.
    on_ingest:
        Optional ``(tenant, rows) -> None`` hook, invoked after a
        transaction writing a shard's rows *commits* (the session's
        ``on_rows_written``, which rides the flusher's ``on_written``
        ordering).  The service layer points this at its
        :class:`~repro.obs.TailBroker` so tail subscribers wake only for
        rows a backfill query can already see.
    """

    BACKENDS = ("sqlite", "memory")

    def __init__(
        self,
        root: Path | str,
        *,
        capacity: int = 8,
        flush_size: int = 64,
        flush_interval: float | None = 0.5,
        backend: str = "sqlite",
        shard_factory: Callable[[str], ProjectShard] | None = None,
        metrics=None,
        on_ingest: Callable[[str, int], None] | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        if flush_size < 1:
            raise ValueError(f"flush_size must be >= 1, got {flush_size}")
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown pool backend: {backend!r}")
        self.root = Path(root)
        self.capacity = capacity
        self.flush_size = flush_size
        self.flush_interval = flush_interval
        self.backend = backend
        # backend="memory": shard stores survive LRU eviction here, keyed by
        # tenant name, so a reopened shard sees its full history exactly like
        # a reopened SQLite file would.
        self._retained: dict[str, tuple] = {}
        self._factory = shard_factory or self._default_factory
        self._shards: "OrderedDict[str, ProjectShard]" = OrderedDict()
        self._building: dict[str, threading.Event] = {}
        # Names whose evicted shard is still closing.  A lookup blocks on
        # this the same way it blocks on _building: were the name rebuilt
        # while the old incarnation's close was in flight, a failed close
        # could no longer reinstate the shard — orphaning its staged,
        # already-acknowledged records.
        self._closing: dict[str, threading.Event] = {}
        # Pivot caches of cleanly closed shards, coldest first (see _open
        # and read_at_rest).
        self._detached: "OrderedDict[str, _Detached]" = OrderedDict()
        self._lock = threading.RLock()
        self._ever_opened: set[str] = set()
        self.metrics = metrics or MetricsRegistry()
        self.stats = StatsView(self.metrics, _STATS)
        self.on_ingest = on_ingest

    def _default_factory(self, name: str) -> ProjectShard:
        config = ProjectConfig(self.root / name, name)
        db = repository = None  # sqlite: the session opens its own files
        if self.backend == "memory":
            from ..storage.memory import MemoryBlobStore, MemoryRelationalStore
            from ..versioning.repository import Repository

            if name not in self._retained:
                self._retained[name] = (
                    MemoryRelationalStore(),
                    Repository(None, config.root, store=MemoryBlobStore()),
                )
            db, repository = self._retained[name]
        session = Session(
            config,
            db=db,
            repository=repository,
            default_filename=SERVICE_FILENAME,
        )
        return ProjectShard(name, session)

    def _open(self, name: str) -> ProjectShard:
        """Build a shard, then apply the pool's policy, hooks, metrics and kept
        views — here only, whichever factory built the session."""
        shard = self._factory(name)
        shard.flush_size = self.flush_size
        shard.flush_interval = self.flush_interval
        session = shard.session
        # The session's query engine carries the shard's materialized pivot
        # views (one cache per tenant, warm across requests).  Resolve it
        # here, once, so the session's post-commit invalidation hook — which
        # runs on the writing thread — never races its lazy construction.
        engine = session.query
        with self._lock:
            detached = self._detached.pop(name, None)
        if detached is not None:
            # write_version restarts with the connection: without the bump a
            # view could fast-hit past rows another process wrote meanwhile.
            detached.cache.bump_generation(session.projid)
            engine.cache = detached.cache
        session.metrics.attach(self.metrics)
        if self.on_ingest is not None:
            session.on_rows_written = partial(self.on_ingest, name)
        return shard

    # ----------------------------------------------------------------- lookup
    def get(self, name: str) -> ProjectShard:
        """Return the shard for ``name``, opening (and maybe evicting) as needed."""
        while True:
            with self._lock:
                shard = self._shards.get(name)
                if shard is not None:
                    self._shards.move_to_end(name)
                    self.stats["hits"].inc()
                    return shard
                pending = self._building.get(name) or self._closing.get(name)
                if pending is None:
                    opening = threading.Event()
                    self._building[name] = opening
                    self.stats["misses"].inc()
                    if name in self._ever_opened:
                        self.stats["reopens"].inc()
                    self._ever_opened.add(name)
                    break
            # Another thread is opening (or closing) this shard; wait and
            # re-check rather than racing a duplicate handle on the same
            # database file.
            pending.wait()
        # Construct outside the pool lock: opening a shard touches the disk
        # (directory layout, SQLite schema) and must not block lookups of
        # unrelated hot shards.
        evicted: list[ProjectShard] = []
        try:
            shard = self._open(name)
        except BaseException:
            with self._lock:
                self._building.pop(name, None)
            opening.set()
            raise
        with self._lock:
            self._shards[name] = shard
            self._building.pop(name, None)
            while len(self._shards) > self.capacity:
                cold_name, cold = self._shards.popitem(last=False)
                self._closing[cold_name] = threading.Event()
                evicted.append(cold)
        opening.set()
        for cold in evicted:
            try:
                self._close_evicted(cold)
            except Exception:  # noqa: BLE001 - reinstated; retried on the next eviction or close()
                pass
        return shard

    def _close_evicted(self, shard: ProjectShard) -> None:
        """Close a shard popped from the cache without losing records.

        If the close fails (the flush raised), the shard still holds its
        staged records, so it is reinstated into the cache rather than
        orphaned — acknowledged appends stay reachable and the flush is
        retried on the next eviction or :meth:`close` — and the failure
        propagates.  The ``_closing`` reservation taken when the shard was
        popped guarantees the name was not concurrently rebuilt, so
        reinstating always succeeds.  Only a successful close counts as an
        eviction and detaches the shard's pivot cache, before the
        reservation a reopen waits on is released.
        """
        try:
            shard.close()
        except BaseException:
            with self._lock:
                self._shards[shard.name] = shard
                self._shards.move_to_end(shard.name, last=False)
            raise
        else:
            self.stats["evictions"].inc()
            session = shard.session
            detached = _Detached(
                session.query.cache,
                session.projid,
                shard.closed_version,
                session.db.at_rest(),
                session.db.at_rest,
            )
            with self._lock:
                self._detached[shard.name] = detached
                while len(self._detached) > self.capacity:
                    self._detached.popitem(last=False)
        finally:
            with self._lock:
                event = self._closing.pop(shard.name)
            event.set()

    def read_at_rest(
        self, name: str, read: Callable[[PivotViewCache, str, int], bytes | None]
    ) -> bytes | None:
        """``read(cache, projid, write_version)`` of a closed tenant whose
        database file is as its clean close left it; else None, and the
        caller checks the shard out.

        ``read`` answers only from a fast hit at ``write_version`` — a view
        or SQL answer last checked against the file's current state — and
        returns None otherwise; the pool counts ``rest_hits`` when it
        answers.  A tenant open, opening or closing never qualifies (checked
        under the pool lock), nor one whose file was written since its
        close, has a WAL beside it, or was modified inside the racy window
        before it (see :meth:`repro.relational.database.Database.at_rest`).
        A reopen takes the views from under a read that loses the race by
        bumping their generation, which ends every fast hit.
        """
        with self._lock:
            if name in self._shards or name in self._building or name in self._closing:
                return None
            rest = self._detached.get(name)
            if rest is None or rest.identity is None:
                return None
            self._detached.move_to_end(name)
        if rest.at_rest() != rest.identity:
            return None
        body = read(rest.cache, rest.projid, rest.write_version)
        if body is not None:
            self.stats["rest_hits"].inc()
        return body

    @contextmanager
    def checkout(self, name: str) -> Iterator[ProjectShard]:
        """Yield the shard for ``name`` with its lock held.

        Retries the lookup when the shard was evicted between :meth:`get`
        and lock acquisition, so callers never operate on a closed handle.
        """
        while True:
            shard = self.get(name)
            with shard.lock:
                if shard.closed:
                    continue
                yield shard
                return

    # ------------------------------------------------------------- lifecycle
    def open_shards(self) -> list[str]:
        """Names currently holding an open handle, coldest first."""
        with self._lock:
            return list(self._shards)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._shards

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def evict(self, name: str) -> bool:
        """Close one shard now (flushing first); True if it was open."""
        with self._lock:
            shard = self._shards.pop(name, None)
            if shard is not None:
                self._closing[name] = threading.Event()
        if shard is None:
            return False
        # Same contract as LRU eviction, except that a failed close reaches
        # the caller, who asked for this specific one.
        self._close_evicted(shard)
        return True

    def flush_all(self) -> int:
        """Flush every open shard; returns total records written."""
        with self._lock:
            shards = list(self._shards.values())
        return sum(shard.flush() for shard in shards)

    def close(self) -> None:
        """Flush and close every open shard, and drop the detached views.

        A shard whose close fails is put back, its records still staged, for
        a later call to retry; the rest still close, and the first failure
        propagates."""
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
            self._detached.clear()
        error: BaseException | None = None
        for shard in shards:
            try:
                shard.close()
            except BaseException as exc:  # noqa: BLE001 - reinstated, re-raised below
                error = error or exc
                with self._lock:
                    self._shards[shard.name] = shard
        if error is not None:
            raise error
