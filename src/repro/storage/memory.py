"""In-memory storage backends: zero disk I/O behind the same seam.

Tests and benchmarks that only exercise record/query logic pay a real cost
for touching the filesystem — directory layout, WAL journals, fsync-ish
page writes.  These backends satisfy the :mod:`repro.storage.protocols`
contracts entirely in memory:

* :class:`MemoryRelationalStore` — the full FlorDB schema on an SQLite
  ``:memory:`` connection (so every consumer's SQL keeps working verbatim,
  including the query engine's pushdown scans), but no file, no WAL, no
  directory.
* :class:`MemoryBlobStore` — a dict of ``object_id -> bytes`` with the same
  content-addressing and idempotency rules as the directory-backed
  :class:`~repro.versioning.objects.ObjectStore`.

``DatabasePool(backend="memory")`` builds whole service shards on these —
the T12 benchmark drives ingest/read cycles through them to isolate
storage-seam costs from disk costs.
"""

from __future__ import annotations

from ..errors import ObjectNotFoundError
from ..relational.database import Database
from ..versioning.objects import hash_bytes


class MemoryRelationalStore(Database):
    """The FlorDB relational schema on an ephemeral ``:memory:`` database.

    A thin subclass rather than a re-implementation: the protocol contract
    (atomic transactions, monotonic ``write_version``) is inherited from the
    SQLite implementation, while the ``:memory:`` path guarantees the
    backend never touches disk.  Closing discards all data.
    """

    def __init__(self) -> None:
        super().__init__(":memory:")


class MemoryBlobStore:
    """Content-addressed blob storage in a plain dict.

    Mirrors :class:`~repro.versioning.objects.ObjectStore` semantics —
    SHA-256 ids, idempotent ``put``, ``ObjectNotFoundError`` on missing or
    malformed ids — without a filesystem.  Not thread-safe for concurrent
    mutation of the *same* id beyond what dict assignment gives (which is
    enough: ``put`` is idempotent, so racing writers store equal bytes).
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def _validate(self, object_id: str) -> str:
        if len(object_id) < 3 or not all(c in "0123456789abcdef" for c in object_id):
            raise ObjectNotFoundError(f"malformed object id: {object_id!r}")
        return object_id

    def put(self, data: bytes) -> str:
        object_id = hash_bytes(data)
        if object_id not in self._blobs:
            self._blobs[object_id] = bytes(data)
        return object_id

    def get(self, object_id: str) -> bytes:
        self._validate(object_id)
        try:
            return self._blobs[object_id]
        except KeyError:
            raise ObjectNotFoundError(f"object {object_id} not found in memory store") from None

    def get_text(self, object_id: str) -> str:
        return self.get(object_id).decode("utf-8")
