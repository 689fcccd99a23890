"""Backend-parameterized conformance suite for the storage protocols.

Every backend — SQLite file, SQLite memory, directory blob store, dict
blob store — must prove the same :mod:`repro.storage.protocols` semantics:

* ``transaction()`` rolls back every statement on an exception;
* ``write_version`` is monotonic, advances on committed writes, and never
  advances on reads;
* blob ``put`` is idempotent and ``get`` round-trips bytes exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import DatabaseError, ObjectNotFoundError
from repro.relational.database import Database
from repro.storage import (
    BlobStore,
    MemoryBlobStore,
    MemoryRelationalStore,
    RelationalStore,
)
from repro.versioning.objects import ObjectStore, hash_bytes

INSERT = (
    "INSERT INTO logs (projid, tstamp, filename, ctx_id, value_name, value, value_type)"
    " VALUES ('p', 't0', 'f.py', 0, ?, ?, 1)"
)

RELATIONAL_BACKENDS = ("sqlite-file", "sqlite-memory")
BLOB_BACKENDS = ("directory", "memory")


@pytest.fixture(params=RELATIONAL_BACKENDS)
def store(request, tmp_path):
    """One RelationalStore per backend; closed after."""
    if request.param == "sqlite-file":
        backend = Database(tmp_path / "contract.db")
    else:
        backend = MemoryRelationalStore()
    yield backend
    backend.close()


@pytest.fixture(params=BLOB_BACKENDS)
def blobs(request, tmp_path):
    if request.param == "directory":
        yield ObjectStore(tmp_path / "objects")
    else:
        yield MemoryBlobStore()


# ------------------------------------------------------------- relational
class TestRelationalContract:
    def test_satisfies_protocol(self, store):
        assert isinstance(store, RelationalStore)

    def test_transaction_commits(self, store):
        with store.transaction() as conn:
            conn.execute(INSERT, ("acc", "0.9"))
            conn.execute(INSERT, ("loss", "0.1"))
        assert store.count("logs") == 2

    def test_transaction_rolls_back_every_statement(self, store):
        with pytest.raises(RuntimeError):
            with store.transaction() as conn:
                conn.execute(INSERT, ("acc", "0.9"))
                conn.execute(INSERT, ("loss", "0.1"))
                raise RuntimeError("abort")
        assert store.count("logs") == 0

    def test_write_version_monotonic_and_advances_on_writes(self, store):
        v0 = store.write_version
        store.execute(INSERT, ("acc", "0.9"))
        v1 = store.write_version
        assert v1 > v0
        store.executemany(
            "INSERT INTO logs (projid, tstamp, filename, ctx_id, value_name, value, value_type)"
            " VALUES ('p', 't0', 'f.py', 0, ?, ?, 1)",
            [("a", "1"), ("b", "2")],
        )
        assert store.write_version > v1

    def test_reads_do_not_advance_write_version(self, store):
        store.execute(INSERT, ("acc", "0.9"))
        version = store.write_version
        assert store.query("SELECT value_name, value FROM logs") == [("acc", "0.9")]
        assert store.query_one("SELECT COUNT(*) FROM logs") == (1,)
        assert store.count("logs") == 1
        assert store.write_version == version

    def test_rollback_does_not_lose_prior_commits(self, store):
        store.execute(INSERT, ("keep", "1"))
        with pytest.raises(RuntimeError):
            with store.transaction() as conn:
                conn.execute(INSERT, ("drop", "2"))
                raise RuntimeError("abort")
        assert store.query("SELECT value_name FROM logs") == [("keep",)]

    def test_query_one_empty(self, store):
        assert store.query_one("SELECT value FROM logs WHERE value_name = 'nope'") is None

    def test_count_rejects_unknown_table(self, store):
        with pytest.raises(DatabaseError):
            store.count("not_a_table; DROP TABLE logs")


# ------------------------------------------------------------------ blobs
class TestBlobContract:
    def test_satisfies_protocol(self, blobs):
        assert isinstance(blobs, BlobStore)

    def test_round_trip(self, blobs):
        object_id = blobs.put(b"hello world")
        assert object_id == hash_bytes(b"hello world")
        assert blobs.get(object_id) == b"hello world"
        assert blobs.get_text(object_id) == "hello world"

    def test_put_is_idempotent(self, blobs):
        first = blobs.put(b"same bytes")
        second = blobs.put(b"same bytes")
        assert first == second
        assert blobs.get(first) == b"same bytes"

    def test_malformed_ids_are_absent_not_errors(self, blobs):
        # Absent means ObjectNotFoundError, never a path or value error.
        for object_id in ("not-hex!", "ab"):  # "ab" is too short to fan out
            with pytest.raises(ObjectNotFoundError):
                blobs.get(object_id)

    def test_get_missing_raises(self, blobs):
        with pytest.raises(ObjectNotFoundError):
            blobs.get(hash_bytes(b"never stored"))

    def test_text_round_trip_unicode(self, blobs):
        object_id = blobs.put("héllo ∆ wörld".encode("utf-8"))
        assert blobs.get_text(object_id) == "héllo ∆ wörld"
