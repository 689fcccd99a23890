"""Materialized pivot views with append-aware incremental maintenance.

Two layers of state per project.  The **records** layer holds the annotated
long-format records once per ``(project, name)``, bucketed per run and kept
in ``seq`` (append) order, plus the per-run pivots computed from them, keyed
by the names actually *present* in the run.  A **view** — one per
``(projid, sorted names)`` — is thin: its finished frames per requested
column order, the run pivots each was composed from, the encoded bodies
(see :meth:`PivotViewCache.dataframe_body`), and the watermarks they were
built at.  Views that name the
same log share its records, and a run's pivot is shared by every view whose
names select the same records in it — so after a backfill logs a new name
into a few old runs, the first read of ``(loss, new_name)`` fetches only the
new name's rows and the rows appended to ``loss`` since it was last read,
re-pivots only the runs that now hold both, and reuses every other run's
rows verbatim.  Because the pivot is computed run-by-run through the same
functions as the cold rebuild (see :mod:`repro.core.dataframe_view`), the
served frame equals ``build_dataframe`` from scratch by construction — run
order is first appearance among the *requested* names (lowest ``seq``), and
a run's records are merged back into ``seq`` order before pivoting, so
last-write-wins is preserved (benchmark T9 and a stateful property test
assert the equality).

A name's records live only while some live view names it: evicting or
invalidating the last such view drops them, so ``capacity`` (views, LRU)
remains the one bound.

Freshness is detected in two tiers:

* **generation counters** — writers in this process
  (:meth:`~repro.core.session.Session.flush`, which service appends go
  through as well) bump a per-project counter, and the database handle's
  :attr:`~repro.relational.database.Database.write_version` catches any
  other writer sharing the connection (raw repository writes).  A read
  whose view matches both returns the cached frame without touching SQLite
  at all (a *fast hit*).
* **watermarks** — after a generation bump the cache probes
  ``MAX(logs.seq)`` and ``MAX(loops.rowid)`` (indexed, O(1)).  Unchanged
  watermarks re-validate the view (*warm hit*); advanced watermarks trigger
  an *incremental refresh*: the project's cached names are brought up to the
  new watermarks by fetching only ``seq > watermark`` log rows, plus a full
  re-read of any cached run whose loop rows were rewritten (``INSERT OR
  REPLACE`` allocates a fresh rowid, so rewrites advance the loop watermark
  and show up in ``runs_touched_since``).

A cache handed to a new database handle gets a generation bump (a new
connection's ``write_version`` restarts at 0); a watermark *below* the
cached one (an older copy of the file) drops the project's views.

The first read of a name set is a *cold build* whatever it finds cached: it
probes the watermarks, syncs the names other views already hold and fetches
in full only the names nobody has read (``cache.fetched_rows`` counts the
log rows each of these pulls from SQLite).

Returned frames are defensive copies; the cached master is never handed
to callers.  A body (:mod:`repro.dataframe.wire`; the whole view or its
``latest`` rows) is immutable bytes, made once per master and dropped
wherever the master is, so ``capacity`` bounds bodies too.  A view of one
group is spliced from per-run fragments kept on the pivots (one per final
column tuple), so after an append only re-pivoted runs are encoded; a
joined view is one block.  The cache is thread-safe and LRU-capped — one
instance is shared per project shard in the service layer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from ..core.dataframe_view import (
    RunPivot,
    co_occurrence_groups,
    compose_group,
    finalize,
    pivot_run,
)
from ..dataframe import DataFrame, wire
from ..obs.metrics import MetricsRegistry, StatsView
from ..storage.protocols import RelationalStore
from ..relational.queries import (
    AnnotatedLog,
    latest as latest_rows,
    log_watermark,
    long_format_records,
    loop_watermark,
    runs_touched_since,
)

#: A run within one project: ``(tstamp, filename)``.
RunPair = tuple[str, str]


#: ``PivotViewCache.stats`` field → telemetry counter.
_STATS = {
    field: f"cache.{field}"
    for field in (
        "lookups",
        "fast_hits",
        "warm_hits",
        "incremental_refreshes",
        "cold_builds",
        "body_hits",
        "evictions",
        "invalidations",
        "fetched_rows",
    )
}


class _TierCounts(StatsView):
    """The cache's stats view, plus the one derived number callers ask for."""

    __slots__ = ()

    @property
    def hits(self) -> int:
        return self.fast_hits + self.warm_hits


@dataclass
class _ProjectRecords:
    """What the views of one project share: records per name, pivots per run."""

    #: name -> run -> that name's annotated records in the run, in seq order.
    names: dict[str, dict[RunPair, list[AnnotatedLog]]] = field(default_factory=dict)
    #: run -> names whose records the pivot was made from -> pivoted rows.
    pivots: dict[RunPair, dict[frozenset, RunPivot]] = field(default_factory=dict)
    #: Every cached name is complete up to these watermarks.
    log_seq: int = 0
    loop_rowid: int = 0


@dataclass
class _ViewState:
    """One materialized view: finished frames, and the watermarks they hold at."""

    #: requested column order -> finished frame.
    frames: dict[tuple[str, ...], DataFrame] = field(default_factory=dict)
    #: requested column order -> the run pivots ``frames[order]`` is, end to end.
    parts: dict[tuple[str, ...], list[RunPivot] | None] = field(default_factory=dict)
    #: (requested column order, latest) -> the encoded ``frames[order]``.
    bodies: dict[tuple[tuple[str, ...], bool], bytes] = field(default_factory=dict)
    log_seq: int = -1
    loop_rowid: int = -1
    generation: int = -1
    db_version: int = -1


class PivotViewCache:
    """LRU-capped cache of incrementally-maintained pivot views.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously materialized views; the coldest
        entry is dropped beyond that, and with it the records of any name
        no remaining view asks for.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple[str, tuple[str, ...]], _ViewState]" = OrderedDict()
        self._records: dict[str, _ProjectRecords] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self.stats = _TierCounts(self.metrics, _STATS)

    # ------------------------------------------------------------ freshness
    def generation(self, projid: str) -> int:
        with self._lock:
            return self._generations.get(projid, 0)

    def bump_generation(self, projid: str) -> int:
        """Mark the project dirty; the next read re-checks the watermarks.

        This is the write-side invalidation hook: cheap enough to call on
        every flush, precise enough that unrelated projects stay fast.
        """
        with self._lock:
            value = self._generations.get(projid, 0) + 1
            self._generations[projid] = value
            return value

    def invalidate(self, projid: str | None = None) -> int:
        """Drop materialized views (all of them, or one project's) and the
        records under them; returns the count of views."""
        with self._lock:
            keys = [k for k in self._entries if projid is None or k[0] == projid]
            for key in keys:
                del self._entries[key]
                self._records.pop(key[0], None)
            if keys:
                self.stats["invalidations"].inc()
            return len(keys)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # --------------------------------------------------------------- lookup
    def dataframe(self, db: RelationalStore, projid: str, names: Sequence[str]) -> DataFrame:
        """The pivoted view of ``names``, served from the freshest cache tier.

        Any permutation (or duplication) of the same name set shares one
        view state: the co-occurrence partition is order-independent, and
        only the final column order / join anchoring depend on the request
        order, which is re-derived per request from the cached state.
        """
        with self._lock:
            found = self._lookup(db, projid, names)
            if found is None:
                return DataFrame()
            entry, order_key = found
            # Hand out a copy: cached masters must survive callers that
            # mutate their result (adding columns, fillna, ...).
            return entry.frames[order_key].copy()

    def dataframe_body(
        self, db: RelationalStore, projid: str, names: Sequence[str], *, latest: bool = False
    ) -> bytes:
        """:func:`~repro.dataframe.frame_body` of the same view (``latest``:
        of its newest run's rows), made once per finished frame.

        The same lookup as :meth:`dataframe` (one ``lookups`` and one tier
        count per read); the bytes are kept beside the master frame they
        were made from and dropped with it, so a repeat read of an unchanged
        view costs no encoding (``body_hits``).
        """
        with self._lock:
            found = self._lookup(db, projid, names)
            if found is None:
                return wire.frame_body(DataFrame())
            entry, order_key = found
            body = entry.bodies.get((order_key, latest))
            if body is not None:
                self.stats["body_hits"].inc()
                return body
            frame = entry.frames[order_key]
            parts = None if latest else entry.parts[order_key]
            if parts is None:  # one block: the newest run's rows, or a join
                body = wire.frame_body(latest_rows(frame) if latest else frame)
            else:  # each run's rows encoded once per pivot and column tuple
                columns = tuple(frame.columns)
                for pivot in parts:
                    if columns not in pivot.fragments:
                        pivot.fragments[columns] = wire.rows_fragment(pivot.records(columns))
                fragments = (pivot.fragments[columns] for pivot in parts)
                body = wire.splice_body(columns, fragments, len(frame))
            entry.bodies[(order_key, latest)] = body
            return body

    def _lookup(
        self, db: RelationalStore, projid: str, names: Sequence[str]
    ) -> tuple[_ViewState, tuple[str, ...]] | None:
        """Bring the view of ``names`` up to date; call with the lock held.

        Returns the view and the key of the finished frame for this request
        order in it (``None`` when no name was asked for), having counted
        the read against exactly one tier.
        """
        ordered: list[str] = []
        for name in names:
            name = str(name)
            if name not in ordered:
                ordered.append(name)
        if not ordered:
            return None
        key = (projid, tuple(sorted(ordered)))
        self.stats["lookups"].inc()
        generation = self._generations.get(projid, 0)
        db_version = db.write_version
        entry = self._entries.get(key)
        if entry is None:
            tier = "cold_builds"
            entry = _ViewState()
        else:
            self._entries.move_to_end(key)
            if entry.generation == generation and entry.db_version == db_version:
                self.stats["fast_hits"].inc()
                return entry, self._finish(projid, entry, ordered)
            tier = "incremental_refreshes"
        # Watermarks are read *before* any record fetch and bound it
        # (max_seq), so a concurrent append lands entirely after the
        # watermark and is picked up — exactly once — by the next refresh.
        current_seq = log_watermark(db, projid)
        current_loop = loop_watermark(db, projid)
        held = self._records.get(projid)
        if held is not None and (current_seq < held.log_seq or current_loop < held.loop_rowid):
            # Watermarks only grow: the file was replaced by an older copy.
            self.invalidate(projid)
            tier, entry = "cold_builds", _ViewState()
        if current_seq == entry.log_seq and current_loop == entry.loop_rowid:
            tier = "warm_hits"
        else:
            self._sync(db, projid, key[1], current_seq, current_loop)
            self._entries[key] = entry
        entry.generation = generation
        # The snapshot from the top of this lookup, NOT a re-read: a
        # concurrent untracked write landing during the refresh must
        # leave the entry looking stale so the next read probes the
        # watermarks again instead of fast-hitting past it.
        entry.db_version = db_version
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._drop_unreferenced(evicted[0])
            self.stats["evictions"].inc()
        self.stats[tier].inc()
        return entry, self._finish(projid, entry, ordered)

    # ---------------------------------------------------------- maintenance
    def _sync(
        self,
        db: RelationalStore,
        projid: str,
        wanted: Sequence[str],
        current_seq: int,
        current_loop: int,
    ) -> None:
        """Bring the project's records up to the watermarks, and ``wanted`` into them.

        Names some view already holds get the append delta (and a wholesale
        re-read of runs whose loop rows were rewritten); only names nobody
        has read are fetched in full.  Runs that gained records lose their
        pivots — the next compose re-pivots exactly those.
        """
        records = self._records.get(projid) or _ProjectRecords()
        cached = sorted(records.names)
        rewritten: set[RunPair] = set()
        refetched: list[AnnotatedLog] = []
        delta: list[AnnotatedLog] = []
        if cached and current_loop > records.loop_rowid:
            # Runs whose loop rows changed: new runs are cheap (no cached
            # state), but a *cached* run whose ancestry was rewritten via
            # INSERT OR REPLACE must be re-read wholesale — its existing
            # annotations may name stale iteration values.
            dirty = runs_touched_since(db, projid, records.loop_rowid)
            rewritten = {
                pair for pair in dirty if any(pair in by_run for by_run in records.names.values())
            }
            refetched = long_format_records(
                db, projid, cached, run_keys=sorted(rewritten), max_seq=current_seq
            )
        if cached and current_seq > records.log_seq:
            delta = long_format_records(
                db, projid, cached, min_seq=records.log_seq, max_seq=current_seq
            )
        new = [name for name in wanted if name not in records.names]
        fresh = long_format_records(db, projid, new, max_seq=current_seq)
        # Every read is done; from here on nothing can fail half-applied.
        for by_run in records.names.values():
            for pair in rewritten:
                by_run.pop(pair, None)
        records.names.update((name, {}) for name in new)
        # Rewritten runs are covered by the wholesale re-read, not the delta.
        touched = rewritten | self._add(
            records, refetched + [r for r in delta if (r.tstamp, r.filename) not in rewritten]
        )
        self._add(records, fresh)
        for pair in touched:
            records.pivots.pop(pair, None)
        records.log_seq = current_seq
        records.loop_rowid = current_loop
        self._records[projid] = records

    def _add(self, records: _ProjectRecords, fetched: list[AnnotatedLog]) -> set[RunPair]:
        """File fetched records (seq-ordered) under name and run; returns the runs."""
        self.stats["fetched_rows"].inc(len(fetched))
        touched: set[RunPair] = set()
        for record in fetched:
            pair = (record.tstamp, record.filename)
            records.names[record.value_name].setdefault(pair, []).append(record)
            touched.add(pair)
        return touched

    def _drop_unreferenced(self, projid: str) -> None:
        """Forget the records (and pivots over them) no live view names."""
        live = {name for project, names in self._entries if project == projid for name in names}
        if not live:
            del self._records[projid]
            return
        records = self._records[projid]
        for name in [n for n in records.names if n not in live]:
            del records.names[name]
        for per_run in records.pivots.values():
            for present in [p for p in per_run if not p <= live]:
                del per_run[present]

    # ------------------------------------------------------------- compose
    def _finish(self, projid: str, entry: _ViewState, ordered: list[str]) -> tuple[str, ...]:
        """Make sure ``entry`` holds the current frame for this request order."""
        records = self._records[projid]
        if (entry.log_seq, entry.loop_rowid) != (records.log_seq, records.loop_rowid):
            # The shared records moved (this read's sync, or another view's):
            # frames composed before that, and the bodies made from them,
            # are of an older snapshot.
            entry.frames.clear()
            entry.parts.clear()
            entry.bodies.clear()
            entry.log_seq, entry.loop_rowid = records.log_seq, records.loop_rowid
        order_key = tuple(ordered)
        if order_key not in entry.frames:
            composed = self._compose(projid, records, ordered)
            entry.frames[order_key], entry.parts[order_key] = composed
        return order_key

    def _compose(
        self, projid: str, records: _ProjectRecords, ordered: list[str]
    ) -> tuple[DataFrame, list[RunPivot] | None]:
        """Pivot ``ordered`` from the shared records, as ``build_dataframe``
        would, and the pivots the frame's rows are (``None`` for a join)."""
        by_name = {name: records.names[name] for name in ordered}
        # Runs in first-appearance order among the *requested* names.
        first_seq: dict[RunPair, int] = {}
        for by_run in by_name.values():
            for pair, run_records in by_run.items():
                seq = run_records[0].seq
                first_seq[pair] = min(seq, first_seq.get(pair, seq))
        run_order = sorted(first_seq, key=first_seq.__getitem__)
        frames, parts = [], []
        for group in co_occurrence_groups({n: by_name[n].keys() for n in ordered}, ordered):
            pivots: list[RunPivot] = []
            for pair in run_order:
                present = frozenset(name for name in group if pair in by_name[name])
                if not present:
                    continue
                per_run = records.pivots.setdefault(pair, {})
                run_pivot = per_run.get(present)
                if run_pivot is None:
                    merged = [r for name in present for r in by_name[name][pair]]
                    if len(present) > 1:  # one name's records are in seq order as filed
                        merged.sort(key=attrgetter("seq"))
                    run_pivot = per_run[present] = pivot_run((projid, *pair), merged, set(present))
                pivots.append(run_pivot)
            frames.append(compose_group(pivots, group))
            if pivots:
                parts.append(pivots)
        joined = len(parts) > 1  # a join's rows belong to no one run
        return finalize(frames, ordered), None if joined else [p for group in parts for p in group]
