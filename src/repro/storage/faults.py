"""Fault-injecting wrappers over the storage protocols.

These wrappers thread a :class:`repro.testing.chaos.FaultPlan` through the
:class:`~repro.storage.protocols.RelationalStore` and
:class:`~repro.storage.protocols.BlobStore` seams: every call site first
asks the plan whether to stall (slow I/O) or fail (``database is locked``),
then delegates to the wrapped backend.  Because they satisfy the same
runtime-checkable protocols, a fault-wrapped store drops into any layer
that accepts the seam — a :class:`~repro.core.session.Session` via ``db=``,
a :class:`~repro.versioning.repository.Repository` via ``store=``, a
service shard via ``DatabasePool(shard_factory=...)``.

This module lives under ``repro.storage`` (not ``repro.testing``) because
it must import :mod:`sqlite3` to raise the backend's native contention
error, and ``tools/check_storage_seam.py`` confines that import to
``repro.storage``/``repro.relational``.  Error surfacing mirrors the real
backend: faults raised from ``transaction()`` are raw
``sqlite3.OperationalError`` (what a genuinely locked database raises
through :meth:`repro.relational.database.Database.transaction`), while
faults from ``execute``/``executemany`` arrive wrapped in
:class:`~repro.errors.DatabaseError` exactly as ``Database`` wraps them.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from ..errors import DatabaseError

__all__ = ["FaultyBlobStore", "FaultyRelationalStore"]


def _locked_error() -> sqlite3.OperationalError:
    return sqlite3.OperationalError("database is locked")


class FaultyRelationalStore:
    """A :class:`RelationalStore` that injects contention and stalls.

    Write entry points (``transaction``, ``execute``, ``executemany``) may
    raise ``database is locked`` *before* touching the backend, so an
    injected failure never leaves a partial transaction behind — it models
    the moment SQLite refuses the lock, which is exactly what the
    background flusher's retry loop exists to absorb.  Reads only stall.
    """

    def __init__(self, inner, plan, *, site: str = "relational"):
        self.inner = inner
        self.plan = plan
        self.site = site

    # -------------------------------------------------------------- faulting
    def _stall(self, op: str) -> None:
        self.plan.maybe_sleep(f"{self.site}.{op}")

    def _write_fault(self, op: str, *, wrapped: bool) -> None:
        self._stall(op)
        if self.plan.decide("locked", f"{self.site}.{op}"):
            error = _locked_error()
            if wrapped:
                raise DatabaseError(f"SQL error: {error}") from error
            raise error

    # -------------------------------------------------------------- protocol
    @property
    def write_version(self) -> int:
        return self.inner.write_version

    @contextmanager
    def transaction(self) -> Iterator[Any]:
        self._write_fault("transaction", wrapped=False)
        with self.inner.transaction() as connection:
            yield connection

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        self._write_fault("execute", wrapped=True)
        return self.inner.execute(sql, params)

    def executemany(self, sql: str, rows: Sequence[Sequence[Any]]) -> None:
        self._write_fault("executemany", wrapped=True)
        self.inner.executemany(sql, rows)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list:
        self._stall("query")
        return self.inner.query(sql, params)

    def query_one(self, sql: str, params: Sequence[Any] = ()):
        self._stall("query")
        return self.inner.query_one(sql, params)

    def count(self, table: str) -> int:
        return self.inner.count(table)

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str):
        # Backend extras beyond the protocol (e.g. ``path``) pass
        # through un-faulted; only the seam's members inject.
        return getattr(self.inner, name)


class FaultyBlobStore:
    """A :class:`BlobStore` whose ``put``/``get`` paths may stall.

    Blob storage has no lock to contend on — its failure mode under load
    is latency — so the wrapper injects slow I/O only.
    """

    def __init__(self, inner, plan, *, site: str = "blob"):
        self.inner = inner
        self.plan = plan
        self.site = site

    def put(self, data: bytes) -> str:
        self.plan.maybe_sleep(f"{self.site}.put")
        return self.inner.put(data)

    def get(self, object_id: str) -> bytes:
        self.plan.maybe_sleep(f"{self.site}.get")
        return self.inner.get(object_id)

    def get_text(self, object_id: str) -> str:
        self.plan.maybe_sleep(f"{self.site}.get")
        return self.inner.get_text(object_id)
