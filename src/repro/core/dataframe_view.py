"""Construction of the pivoted ``flor.dataframe`` view.

The ``logs`` table is long-format (one row per logged value); the user-facing
view is wide-format with one column per requested log name.  This module
defines the pivot semantics used throughout the reproduction:

1. Every requested log record is annotated with its loop dimensions
   (``document``, ``page``, ``epoch``, ``step``, ...) via
   :func:`repro.relational.queries.long_format_records`.
2. Names that co-occur within at least one run (same ``tstamp`` and
   ``filename``) form a *group*; each group pivots into rows keyed by
   ``(projid, tstamp, filename, dimensions...)``.  Values logged at a
   shallower nesting level than the group's deepest level are broadcast down
   to the deeper rows of the same run (e.g. a per-epoch ``acc`` repeats on
   every per-step ``loss`` row); when several shallow records share a
   position the **last** write wins, matching append order.
3. Groups that never co-occur (e.g. ``first_page`` logged by
   ``featurize.py`` and ``page_color`` logged by the feedback web app) are
   combined left-to-right with a left join on ``projid`` plus the dimension
   columns they share.  The joined row keeps the left group's ``filename``
   and the later of the two timestamps, which lets ``flor.utils.latest``
   select the most recent feedback exactly as in Figure 6 of the paper.

The pivot is computed **per run** and composed afterwards: one
:class:`RunPivot` per ``(projid, tstamp, filename)`` run, concatenated in
first-appearance order, then cross-group joins.  Run granularity is what
makes the view incrementally maintainable — the materialized pivot-view
cache in :mod:`repro.query` re-pivots only the runs an append touched and
reuses every other run's rows verbatim, going through the *same* functions
as the cold rebuild below so the two paths agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..dataframe import DataFrame, from_records, merge
from ..relational.database import Database
from ..relational.queries import AnnotatedLog, BASE_DIMENSIONS, long_format_records

#: Columns that identify a run (as opposed to a loop position within a run).
RUN_COLUMNS = list(BASE_DIMENSIONS)

#: A run is identified by ``(projid, tstamp, filename)``.
RunKey = tuple[str, str, str]


def build_dataframe(
    db: Database,
    projid: str,
    names: Sequence[str],
    *,
    tstamp_range: tuple[str | None, str | None] | None = None,
) -> DataFrame:
    """Build the pivoted view for ``names`` (see module docstring for semantics).

    This is the *cold* path: it fetches the annotated records through the
    relational pushdown layer and pivots from scratch.  ``tstamp_range``
    bounds the scan inside SQLite.  Cached, incrementally-maintained reads
    go through :class:`repro.query.QueryEngine` instead, which reuses the
    pivot primitives below.
    """
    names = [str(n) for n in names]
    if not names:
        return DataFrame()
    records = long_format_records(db, projid, names, tstamp_range=tstamp_range)
    if not records:
        return from_records([], columns=RUN_COLUMNS + names)
    groups = co_occurrence_groups(runs_by_name_from_records(records, names), names)
    by_run = records_by_run(records)
    frames = []
    for group in groups:
        wanted = set(group)
        pivots = [pivot_run(run_key, recs, wanted) for run_key, recs in by_run.items()]
        frames.append(compose_group(pivots, group))
    return finalize(frames, names)


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------

def runs_by_name_from_records(
    records: Iterable[AnnotatedLog], names: Sequence[str]
) -> dict[str, set[tuple[str, str]]]:
    """Map each requested name to the set of ``(tstamp, filename)`` runs using it."""
    runs_by_name: dict[str, set[tuple[str, str]]] = {name: set() for name in names}
    for record in records:
        if record.value_name in runs_by_name:
            runs_by_name[record.value_name].add((record.tstamp, record.filename))
    return runs_by_name


def co_occurrence_groups(
    runs_by_name: Mapping[str, set[tuple[str, str]]], names: Sequence[str]
) -> list[list[str]]:
    """Partition requested names into groups that co-occur within some run.

    Group order follows the order of ``names`` so that the first requested
    name anchors the left side of any cross-group join (Figure 6 relies on
    this: ``dataframe("first_page", "page_color")`` keeps every page row).
    The *partition* itself is order-independent — co-occurrence is symmetric
    — which is what lets the pivot-view cache serve every permutation of the
    same name set from one entry.
    """
    groups: list[list[str]] = []
    assigned: set[str] = set()
    for name in names:
        if name in assigned:
            continue
        group = [name]
        assigned.add(name)
        changed = True
        while changed:
            changed = False
            for other in names:
                if other in assigned:
                    continue
                if any(runs_by_name[other] & runs_by_name[member] for member in group):
                    group.append(other)
                    assigned.add(other)
                    changed = True
        groups.append(group)
    return groups


def records_by_run(records: Iterable[AnnotatedLog]) -> dict[RunKey, list[AnnotatedLog]]:
    """Bucket annotated records per run, runs in first-appearance order."""
    by_run: dict[RunKey, list[AnnotatedLog]] = {}
    for record in records:
        key = (record.projid, record.tstamp, record.filename)
        by_run.setdefault(key, []).append(record)
    return by_run


# ---------------------------------------------------------------------------
# Pivoting one run of one group
# ---------------------------------------------------------------------------

@dataclass
class RunPivot:
    """The pivoted rows of one run, restricted to one co-occurrence group.

    ``columns`` holds the ``length`` rows in emission order, a list per column;
    ``dim_order`` lists the run's loop names outermost-first as they first
    appeared.  A group's pivot concatenates its runs' columns
    (:func:`compose_group`); a run pivot is the unit the incremental cache
    recomputes, and holds the cache's encoding of its rows per column tuple.
    """

    run_key: RunKey
    columns: dict[str, list[Any]] = field(default_factory=dict)
    dim_order: list[str] = field(default_factory=list)
    length: int = 0
    fragments: dict[tuple[str, ...], bytes] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.length

    def column(self, name: str) -> list[Any]:
        """The run's values of ``name``: nulls for a column it lacks."""
        values = self.columns.get(name)
        return [None] * self.length if values is None else values

    def records(self, columns: Sequence[str]) -> list[dict[str, Any]]:
        """The rows as dicts over ``columns``, in order."""
        return [dict(zip(columns, row)) for row in zip(*map(self.column, columns))]


def pivot_run(
    run_key: RunKey, records: Iterable[AnnotatedLog], group_names: set[str]
) -> RunPivot:
    """Pivot one run's records (filtered to ``group_names``) into wide rows.

    Records at the run's deepest nesting level key the rows; shallower
    records broadcast onto every row whose dimension tuple extends theirs,
    with last-write-wins semantics when several shallow records target the
    same position (broadcasts follow append order, so re-logged values
    overwrite — the regression pinned by the dataframe-view tests).
    """
    run_records = [r for r in records if r.value_name in group_names]
    if not run_records:
        return RunPivot(run_key)
    max_depth = max(r.position.depth for r in run_records)
    dim_order: list[str] = []
    seen: set[tuple] = set()
    rows: dict[tuple, dict[str, Any]] = {}
    shallow_records: list[AnnotatedLog] = []
    for record in run_records:
        position = record.position
        key = position.key
        if key not in seen:
            seen.add(key)
            for dim, _iteration in key:
                if dim not in dim_order:
                    dim_order.append(dim)
        if position.depth < max_depth:
            shallow_records.append(record)
            continue
        row = rows.get(key)
        if row is None:
            row = rows[key] = _new_row(record)
        row[record.value_name] = record.value
    # prefix length -> prefix -> the rows under it, bucketed the first time a
    # record of that depth broadcasts, so a broadcast touches only its rows.
    # (A row shallower than the length files under its whole key, which no
    # prefix of that length equals.)
    buckets: dict[int, dict[tuple, list[dict[str, Any]]]] = {}
    for record in shallow_records:
        prefix, depth = record.position.key, record.position.depth
        by_prefix = buckets.get(depth)
        if by_prefix is None:
            by_prefix = buckets[depth] = {}
            for key, row in rows.items():
                by_prefix.setdefault(key[:depth], []).append(row)
        targets = by_prefix.get(prefix)
        if targets is None:
            # Nothing deeper to land on: the record gets a row of its own,
            # which later (shallower or equal) records broadcast onto too.
            rows[prefix] = row = _new_row(record)
            targets = [row]
            for length, bucket in buckets.items():
                bucket.setdefault(prefix[:length], []).append(row)
        for row in targets:
            row[record.value_name] = record.value
    pivoted = list(rows.values())
    names = RUN_COLUMNS + _dimension_columns(dim_order) + sorted(group_names)
    columns = {name: [row.get(name) for row in pivoted] for name in names}
    return RunPivot(run_key, columns, dim_order, len(pivoted))


def _new_row(record: AnnotatedLog) -> dict[str, Any]:
    row: dict[str, Any] = {
        "projid": record.projid,
        "tstamp": record.tstamp,
        "filename": record.filename,
    }
    row.update(record.position.key)
    row.update(record.position.values)
    return row


def compose_group(run_pivots: Iterable[RunPivot], group: Sequence[str]) -> DataFrame:
    """Concatenate a group's per-run pivots into one wide frame.

    Dimension columns merge across runs in run order (first-seen); rows keep
    per-run emission order.  Cells for dimensions a run never entered come
    back null, exactly as in a from-scratch pivot.
    """
    pivots = [p for p in run_pivots if not p.empty]
    if not pivots:
        return DataFrame()
    dim_order: list[str] = []
    for pivot in pivots:
        for dim in pivot.dim_order:
            if dim not in dim_order:
                dim_order.append(dim)
    data: dict[str, list[Any]] = {}
    for name in RUN_COLUMNS + _dimension_columns(dim_order) + list(group):
        values = data[name] = []
        for pivot in pivots:
            values.extend(pivot.column(name))
    return DataFrame(data)


def _dimension_columns(dim_order: Sequence[str]) -> list[str]:
    columns: list[str] = []
    for dim in dim_order:
        columns.append(dim)
        columns.append(f"{dim}_value")
    return columns


# ---------------------------------------------------------------------------
# Joining groups and finishing the view
# ---------------------------------------------------------------------------

def finalize(frames: Sequence[DataFrame], names: Sequence[str]) -> DataFrame:
    """Fold group frames left-to-right and settle the output schema.

    Requested names that were never logged still appear as all-null columns,
    so queries like Figure 6's ``infer.page_color.isna()`` work before any
    feedback exists.
    """
    frames = [f for f in frames if not f.empty]
    if not frames:
        return from_records([], columns=RUN_COLUMNS + list(names))
    result = frames[0]
    for frame in frames[1:]:
        result = _join_groups(result, frame)
    for name in names:
        if name not in result:
            result[name] = [None] * len(result)
    return _order_columns(result, names)


def _join_groups(left: DataFrame, right: DataFrame) -> DataFrame:
    """Left-join two group pivots on projid plus their shared dimension values.

    The join aligns on the ``<loop>_value`` columns rather than the raw
    iteration indices: two files logging about the same document share the
    document *name*, while their loop enumeration order may differ (the
    feedback app labels documents in the order experts open them).
    """
    shared_values = [
        c
        for c in left.columns
        if c in right.columns and c.endswith("_value") and c not in RUN_COLUMNS
    ]
    if shared_values:
        keys = ["projid"] + shared_values
    else:
        shared_dims = [c for c in left.columns if c in right.columns and c not in RUN_COLUMNS]
        keys = ["projid"] + shared_dims
    right = _latest_per_key(right, keys)
    joined = merge(left, right, on=keys, how="left", suffixes=("", "_rhs"))
    # Collapse run columns: keep the left filename, take the max tstamp.
    if "tstamp_rhs" in joined:
        tstamps = []
        for row in joined.to_records():
            lhs, rhs = row.get("tstamp"), row.get("tstamp_rhs")
            tstamps.append(max(v for v in (lhs, rhs) if v is not None) if (lhs or rhs) else None)
        joined["tstamp"] = tstamps
        joined = joined.drop("tstamp_rhs")
    for column in list(joined.columns):
        if column.endswith("_rhs"):
            joined = joined.drop(column)
    return joined


def _latest_per_key(frame: DataFrame, keys: Sequence[str]) -> DataFrame:
    """Keep only the most recent row (by tstamp) for each join-key combination.

    The right-hand side of a cross-source join represents "the current value
    of this metadata for this entity" (e.g. the newest expert label for a
    page); older contributions remain queryable directly but do not fan out
    the join.
    """
    if frame.empty or "tstamp" not in frame:
        return frame
    usable_keys = [k for k in keys if k in frame.columns]
    best_index: dict[tuple, int] = {}
    for i in range(len(frame)):
        row = frame.row(i)
        key = tuple(row.get(k) for k in usable_keys)
        current = best_index.get(key)
        if current is None or (row.get("tstamp") or "") >= (frame.row(current).get("tstamp") or ""):
            best_index[key] = i
    return frame.take(sorted(best_index.values()))


def _order_columns(frame: DataFrame, names: Sequence[str]) -> DataFrame:
    """Stable column order: run columns, dimensions, then requested names."""
    run_cols = [c for c in RUN_COLUMNS if c in frame.columns]
    name_cols = [c for c in names if c in frame.columns]
    dim_cols = [c for c in frame.columns if c not in run_cols and c not in name_cols]
    order = run_cols + dim_cols + name_cols
    return frame if frame.columns == order else frame.select(order)
