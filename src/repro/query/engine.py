"""The query planner façade every read path routes through.

:class:`QueryEngine` decides, per request, which tier answers it:

* **pivot reads** (``flor.dataframe``) with no explicit bounds go through
  the :class:`~repro.query.cache.PivotViewCache` — fast/warm hits return
  the materialized view, appends merge incrementally; a server asks for the
  same view already encoded (:meth:`QueryEngine.dataframe_body`);
* **bounded reads** (a ``tstamp_range``) push the range into SQLite via
  :func:`repro.core.dataframe_view.build_dataframe` and bypass the cache —
  ad-hoc slices should not evict the hot unbounded views;
* **plain SQL** (``session.sql(statement)``, ``flor.sql``, the CLI's
  ``sql``, the service's ``GET .../sql``) is an entry of the same cache: a
  stable statement's answer and its body are served again until the
  project's generation or the handle's ``write_version`` moves; a
  statement calling ``random()``, a date/time function or any
  non-deterministic built-in runs every time (:meth:`QueryEngine.sql_body`
  is the encoded form);
* **SQL over a pivot** (``session.sql(..., names=[...])``) materializes
  the temp ``pivot`` table from the *cached* frame instead of rebuilding
  it, so the CLI's ``sql --names`` and the service's ``GET .../sql`` warm
  and reuse the same views as ``dataframe``; its answer is not kept.

Writers call :meth:`note_write` (wired into ``Session.flush``, which the
service's appends go through too), which bumps the cache's per-project generation
counter — the signal that turns the next read's fast hit into a watermark
probe.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

from ..core.dataframe_view import build_dataframe
from ..dataframe import DataFrame, frame_body
from ..storage.protocols import RelationalStore
from ..relational.queries import latest as latest_rows
from ..relational.sql import _require_read_only, run_sql, sql_over_names
from ..obs.metrics import StatsView
from .cache import PivotViewCache


class QueryEngine:
    """Plan and execute pivot/SQL reads for one project database.

    Parameters
    ----------
    db:
        The project database (one shard in service deployments).
    projid:
        Project id the reads are scoped to.
    cache:
        Shared :class:`PivotViewCache`; a private one is created when
        omitted.  The service layer shares one cache per shard so the
        views stay warm across requests and clients.
    """

    def __init__(self, db: RelationalStore, projid: str, cache: PivotViewCache | None = None):
        self.db = db
        self.projid = projid
        # Explicit None-check: an empty PivotViewCache is falsy (len() == 0),
        # and a freshly shared cache must not be silently replaced.
        self.cache = cache if cache is not None else PivotViewCache()

    # ---------------------------------------------------------------- reads
    def dataframe(
        self,
        *names: str,
        latest: bool = False,
        tstamp_range: tuple[str | None, str | None] | None = None,
    ) -> DataFrame:
        """The pivoted view of ``names`` (the paper's ``flor.dataframe``).

        ``latest`` keeps only the rows of the newest run, applied after the
        pivot so its semantics match ``flor.utils.latest`` exactly.
        ``tstamp_range`` is an inclusive ``(since, until)`` pair pushed down
        into the SQLite scan (either side may be ``None``).
        """
        requested = [str(n) for n in names]
        if not requested:
            return DataFrame()
        if tstamp_range is not None:
            frame = build_dataframe(self.db, self.projid, requested, tstamp_range=tstamp_range)
        else:
            frame = self.cache.dataframe(self.db, self.projid, requested)
        if latest:
            frame = latest_rows(frame)
        return frame

    def dataframe_body(self, names: Sequence[str], *, latest: bool = False) -> bytes:
        """The unbounded pivot of ``names`` (``latest``: its newest run's
        rows) as the JSON bytes a server sends for :meth:`dataframe`.

        The cache keeps the bytes with the materialized view, so re-reading
        an unchanged view encodes nothing (see
        :meth:`PivotViewCache.dataframe_body`).
        """
        return self.cache.dataframe_body(self.db, self.projid, names, latest=latest)

    def sql(
        self,
        query: str,
        names: Sequence[str] = (),
        params: Sequence[Any] = (),
    ) -> DataFrame:
        """Read-only SQL; with ``names`` the cached pivot backs the temp table.

        Without ``names`` a stable statement's answer is kept by the cache
        (see :meth:`PivotViewCache.sql`).  With them, the read-only guard
        runs *before* the pivot is materialized, so a rejected statement
        costs nothing.  Registering the temp ``pivot`` table writes through
        the shared connection, which advances its ``write_version`` and
        demotes the next dataframe read from a fast hit to a warm hit — two
        O(1) watermark seeks, after which the fast tier resumes.
        """
        if names:
            _require_read_only(query)
            names = [str(n) for n in names]
            frame = self.dataframe(*names)
            return sql_over_names(self.db, self.projid, names, query, params, frame=frame)
        run = partial(run_sql, self.db, query, params)
        return self.cache.sql(self.db, self.projid, query, params, run)

    def sql_body(self, query: str, names: Sequence[str] = ()) -> bytes:
        """:meth:`sql` as the JSON bytes a server sends; a plain statement's
        body is kept with its answer (:meth:`PivotViewCache.sql_body`)."""
        if names:
            return frame_body(self.sql(query, names))
        return self.cache.sql_body(self.db, self.projid, query, (), partial(run_sql, self.db, query))

    # --------------------------------------------------------------- writes
    def note_write(self) -> None:
        """Signal that this project's context changed (cheap, call per flush)."""
        self.cache.bump_generation(self.projid)

    def invalidate(self) -> int:
        """Drop this project's materialized views; returns how many were dropped."""
        return self.cache.invalidate(self.projid)

    @property
    def stats(self) -> StatsView:
        return self.cache.stats
