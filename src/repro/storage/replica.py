"""Snapshot-shipped read replicas behind the :class:`RelationalStore` seam.

SQLite gives a shard exactly one writer, and FlorDB's :class:`~repro.
relational.database.Database` serializes *everything* — reads included —
behind one connection lock.  Under concurrent ingest, readers therefore
queue behind write transactions even though they never conflict logically.
:class:`ReplicatedDatabase` breaks that coupling the way a production
deployment would: the primary keeps sole ownership of writes, and reads are
routed round-robin across N **replica handles**, each a full in-memory copy
of the shard refreshed by shipping a database snapshot (SQLite's backup
API — the page-level equivalent of shipping the WAL) from the writer.

Freshness is *bounded staleness*, not read-your-writes:

* every snapshot records the replica's ``logs.seq`` **watermark** (and the
  primary's ``write_version`` at copy time), which callers expose in
  responses so clients know exactly how fresh their read was;
* a read re-ships a snapshot only when the primary has advanced **and** the
  replica's snapshot is older than ``max_staleness`` seconds — the
  watermark cadence.  Between refreshes, reads cost zero primary-lock time.
* ``max_staleness=0`` degenerates to read-your-writes (every read that
  finds the primary advanced re-syncs first); the conformance suite runs
  the backend in this mode to prove the protocol semantics hold.

Writes (``execute``/``executemany``/``transaction``) always go straight to
the primary — single-owner per shard, exactly as before.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from ..obs.metrics import MetricsRegistry, StatsView
from ..relational.database import Database


#: ``ReplicatedDatabase.stats`` field → telemetry counter
#: (``skipped_syncs``: reads served within the staleness bound).
_STATS = {
    field: f"replica.{field}"
    for field in ("syncs", "replica_reads", "primary_writes", "skipped_syncs")
}


class Replica:
    """One read handle: an in-memory database refreshed from the primary."""

    def __init__(self, index: int):
        self.index = index
        self.db = Database(":memory:")
        self.lock = threading.Lock()
        #: Primary ``write_version`` the last snapshot corresponds to.
        self.synced_version = -1
        #: Monotonic time of the last snapshot.
        self.synced_at = float("-inf")
        #: ``MAX(logs.seq)`` visible on this replica (the staleness bound
        #: callers surface to clients).
        self.watermark = 0

    def close(self) -> None:
        self.db.close()


class ReplicatedDatabase:
    """A :class:`RelationalStore` that scales reads across snapshot replicas.

    Parameters
    ----------
    primary:
        The single-owner writer handle.  Not closed by :meth:`close` —
        its owner (the session) manages its lifecycle.
    replicas:
        Number of read handles.
    max_staleness:
        Seconds a replica snapshot may lag the primary before a read
        forces a refresh.  ``0`` means every read is fresh.
    clock:
        Monotonic time source, injectable for deterministic staleness
        tests.
    on_sync:
        Called with the replica index after each snapshot ship — the
        service pool hooks per-replica query-cache invalidation here, so
        materialized pivot views notice that the page-level copy (which
        bypasses SQL and therefore ``write_version``) changed the data
        underneath them.
    """

    def __init__(
        self,
        primary: Database,
        *,
        replicas: int = 2,
        max_staleness: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        on_sync: "Callable[[int], None] | None" = None,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
        self.primary = primary
        self.max_staleness = max_staleness
        self.clock = clock
        self.on_sync = on_sync
        self.metrics = MetricsRegistry()
        self.stats = StatsView(self.metrics, _STATS)
        self.replicas = [Replica(i) for i in range(replicas)]
        self._round_robin = 0
        self._rr_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- writes
    @property
    def path(self) -> str:
        return self.primary.path

    @property
    def write_version(self) -> int:
        return self.primary.write_version

    def transaction(self):
        self.stats["primary_writes"].inc()
        return self.primary.transaction()

    def execute(self, sql: str, params: Sequence[Any] = ()):
        self.stats["primary_writes"].inc()
        return self.primary.execute(sql, params)

    def executemany(self, sql: str, rows: Sequence[Sequence[Any]]) -> None:
        self.stats["primary_writes"].inc()
        self.primary.executemany(sql, rows)

    # -------------------------------------------------------------- reads
    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        with self.checkout_replica() as replica:
            return replica.db.query(sql, params)

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> tuple | None:
        with self.checkout_replica() as replica:
            return replica.db.query_one(sql, params)

    def count(self, table: str) -> int:
        with self.checkout_replica() as replica:
            return replica.db.count(table)

    @contextmanager
    def checkout_replica(self) -> Iterator[Replica]:
        """Yield a replica no staler than the bound, round-robin.

        Several readers may hold the same replica concurrently — its
        :class:`~repro.relational.database.Database` lock serializes the
        actual SQLite calls; the replica's own lock only serializes
        snapshot refreshes.
        """
        with self._rr_lock:
            replica = self.replicas[self._round_robin % len(self.replicas)]
            self._round_robin += 1
        self._ensure_fresh(replica)
        self.stats["replica_reads"].inc()
        yield replica

    def _ensure_fresh(self, replica: Replica) -> None:
        version = self.primary.write_version
        if replica.synced_version == version:
            return
        if (
            replica.synced_version >= 0
            and self.clock() - replica.synced_at < self.max_staleness
        ):
            self.stats["skipped_syncs"].inc()
            return
        self._sync(replica)

    def _sync(self, replica: Replica) -> None:
        with replica.lock:
            version = self.primary.write_version
            if replica.synced_version == version:
                return
            # snapshot_into holds the primary's lock for the duration of
            # the page copy, so the snapshot and the version it returns are
            # mutually consistent (no write can land in between).
            replica.synced_version = self.primary.snapshot_into(replica.db)
            row = replica.db.query_one("SELECT COALESCE(MAX(seq), 0) FROM logs")
            replica.watermark = int(row[0]) if row else 0
            replica.synced_at = self.clock()
            self.stats["syncs"].inc()
        if self.on_sync is not None:
            self.on_sync(replica.index)

    def refresh(self) -> None:
        """Ship a fresh snapshot to every replica now (quiesce barrier)."""
        for replica in self.replicas:
            self._sync(replica)

    def min_watermark(self) -> int:
        """The oldest ``logs.seq`` any replica would currently serve."""
        return min(replica.watermark for replica in self.replicas)

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the replica handles.  The primary stays open (not owned)."""
        if self._closed:
            return
        self._closed = True
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ReplicatedDatabase":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
