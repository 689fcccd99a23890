"""The storage seam: what a backend must provide, and nothing else.

Every layer of FlorDB above this module — repositories, the query engine,
the runtime flusher, the service pool, the job store — talks to storage
through two small structural interfaces:

* :class:`RelationalStore` — the transactional row store holding the
  physical tables of the paper's Figure 1 (``logs``, ``loops``, ``ts2vid``,
  ``obj_store``, ``build_deps``, ``jobs``/``job_events``).  The reference
  implementation is :class:`repro.relational.database.Database` (one SQLite
  connection); :class:`repro.storage.memory.MemoryRelationalStore` backs
  tests and benchmarks with zero disk I/O.
* :class:`BlobStore` — the content-addressed blob store holding version
  snapshots.  The reference implementation is
  :class:`repro.versioning.objects.ObjectStore` (git-style fan-out
  directory); :class:`repro.storage.memory.MemoryBlobStore` is the
  dict-backed test double.

The protocols are :func:`typing.runtime_checkable` so the conformance suite
(``tests/storage/test_store_contract.py``) can assert that every backend
actually satisfies the seam, and ``tools/check_storage_seam.py`` keeps
``sqlite3`` imports from leaking past ``repro.storage``/``repro.relational``.

Contract highlights every backend must honour (proved by the conformance
suite):

* ``transaction()`` is atomic — raising inside the block rolls back every
  statement issued through the yielded connection;
* ``write_version`` is monotonic — it never decreases, advances on every
  committed write (through this store or, for a store on a file, through
  any other connection to it), and never advances on reads;
* ``checkpoint`` keeps every committed row;
* ``at_rest`` is None while the store is open, and for a store not on a file;
* ``put`` is idempotent — storing identical bytes twice returns the same
  object id and stores one copy.
"""

from __future__ import annotations

from typing import Any, ContextManager, Protocol, Sequence, runtime_checkable


@runtime_checkable
class RelationalStore(Protocol):
    """Transactional row storage for the FlorDB schema.

    Structural: any object with these members is a RelationalStore —
    backends never subclass this.
    """

    @property
    def write_version(self) -> int:
        """Monotonic count of the committed writes this store can see.

        Reads never advance it; every committed INSERT/UPDATE/DELETE does —
        through this store, and through any other connection to the same
        file.  The query cache serves a view or an SQL answer while it (and
        the cache's own generation counter) holds, so it is read on every
        cached read and must stay cheap: no table is read.
        """
        ...

    def transaction(self) -> ContextManager[Any]:
        """Run a block atomically; roll back on any exception.

        Yields a DB-API-shaped connection (``execute``/``executemany``).
        """
        ...

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Execute one statement and commit; returns a cursor-like object."""
        ...

    def executemany(self, sql: str, rows: Sequence[Sequence[Any]]) -> None:
        """Execute one statement per row inside a single commit."""
        ...

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Run a read and return every row."""
        ...

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> tuple | None:
        """Run a read and return the first row, or None."""
        ...

    def count(self, table: str) -> int:
        """Row count of one schema table."""
        ...

    def checkpoint(self) -> bool:
        """Fold a write-ahead log past its threshold into the store (returns
        whether it ran); the first call hands this upkeep to the caller."""
        ...

    def checkpoint_due(self) -> bool:
        """Whether :meth:`checkpoint` would run one now; a cheap probe."""
        ...

    def close(self) -> None:
        """Release the backend's resources; the store is unusable after."""
        ...

    def at_rest(self) -> tuple[int, ...] | None:
        """An identity of the stored file while nothing writes it (device,
        inode, size, mtime and ctime), or None — for a store not on a file,
        or one a connection may still be writing.  Callable after
        :meth:`close`: equal identities taken at a close and at a later read
        mean nothing committed in between (the service pool answers a closed
        tenant's reads from its kept views on that alone)."""
        ...


@runtime_checkable
class BlobStore(Protocol):
    """Write-once, content-addressed blob storage.

    Object ids are SHA-256 hex digests of the contents, so ``put`` is
    idempotent by construction and ``get`` can verify integrity.
    """

    def put(self, data: bytes) -> str:
        """Store ``data`` and return its object id (idempotent)."""
        ...

    def get(self, object_id: str) -> bytes:
        """Return the stored bytes; raise ObjectNotFoundError when absent."""
        ...

    def get_text(self, object_id: str) -> str:
        """Return the stored bytes decoded as UTF-8."""
        ...
