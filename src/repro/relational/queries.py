"""Higher-level query shapes over the relational data model.

The central export is :func:`long_format_records`, which joins ``logs`` with
the ``loops`` table to annotate every log record with its loop dimensions
(document, page, epoch, step, ...).  The pivoted user-facing view built on
top of it lives in :mod:`repro.core.dataframe_view`.

Filtering is pushed down into SQLite: the value-name set, timestamp range
and ``seq`` bounds narrow the one ``logs`` scan through the covering indexes
of :mod:`repro.relational.schema` (or the ``seq`` range alone, for a delta
read), and only the loop rows of the runs that
scan returned are fetched — by run key, one index seek per run — instead of
every loop ever recorded.  A record's loop ancestry belongs to its
``(tstamp, filename, ctx_id)`` context, not to the record, so it is worked
out once per context as an immutable :class:`LoopPosition` that every record
logged there shares.  The ``seq``/``rowid`` watermark helpers at the bottom
let the materialized pivot-view cache of :mod:`repro.query` detect and fetch
just the appended delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, NamedTuple, Sequence

from ..dataframe import DataFrame, from_records
from ..storage.protocols import RelationalStore
from .records import decode_value
from .repositories import Ts2VidRepository

#: Reserved dimension columns that always appear in the pivoted view.
BASE_DIMENSIONS = ("projid", "tstamp", "filename")

#: Runs per loop fetch: two bind variables each plus the projid stay under
#: 999, the lowest ``SQLITE_LIMIT_VARIABLE_NUMBER`` an SQLite build defaults to.
_RUNS_PER_FETCH = 400


class LoopPosition(NamedTuple):
    """Where in its run's loop nest a logging context sits.

    ``key`` is ``((loop_name, iteration), ...)`` from the outermost loop
    inward — hashable, it keys the pivot's rows — ``values`` the matching
    ``(("<loop_name>_value", iteration value), ...)`` and ``depth`` the
    nesting level.  One instance is shared by every record of a context, so
    it is immutable all the way down.
    """

    key: tuple[tuple[str, int], ...] = ()
    values: tuple[tuple[str, Any], ...] = ()
    depth: int = 0


@dataclass(slots=True)
class AnnotatedLog:
    """A log record joined with its loop-dimension ancestry.

    ``position`` is the (shared) :class:`LoopPosition` of the record's
    context; ``dimensions`` and ``dimension_values`` read it as fresh dicts
    — loop name to iteration index, ``<loop_name>_value`` to the stringified
    iteration value.  ``seq`` is the row's ``logs.seq`` — append order, which
    is what lets records fetched name by name be put back into the order one
    scan would have returned them in.
    """

    projid: str
    tstamp: str
    filename: str
    ctx_id: int
    value_name: str
    value: Any
    position: LoopPosition = LoopPosition()
    seq: int = 0

    @property
    def dimensions(self) -> dict[str, int]:
        return dict(self.position.key)

    @property
    def dimension_values(self) -> dict[str, Any]:
        return dict(self.position.values)

    @property
    def depth(self) -> int:
        return self.position.depth

    def dimension_key(self) -> tuple:
        """Hashable key of the record's loop position (outermost first)."""
        return self.position.key

    def as_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "projid": self.projid,
            "tstamp": self.tstamp,
            "filename": self.filename,
            "ctx_id": self.ctx_id,
            "value_name": self.value_name,
            "value": self.value,
        }
        row.update(self.position.key)
        row.update(self.position.values)
        return row


def _loop_position(loops_by_ctx: dict[int, tuple], ctx_id: int) -> LoopPosition:
    """The position of ``ctx_id`` among its run's loop rows.

    ``loops_by_ctx`` maps a context to its ``(parent_ctx_id, loop_name,
    loop_iteration, iteration_value)``.  A context contributes once even
    when a corrupted parent chain cycles.
    """
    chain: list[tuple] = []
    seen: set[int] = set()
    current = loops_by_ctx.get(ctx_id)
    while current is not None and ctx_id not in seen:
        chain.append(current)
        seen.add(ctx_id)
        ctx_id = current[0]
        current = loops_by_ctx.get(ctx_id)
    chain.reverse()
    dimensions = {name: iteration for _parent, name, iteration, _value in chain}
    values = {f"{name}_value": value for _parent, name, _iteration, value in chain}
    return LoopPosition(tuple(dimensions.items()), tuple(values.items()), len(dimensions))


def _logs_where(
    projid: str,
    value_names: Sequence[str] | None,
    tstamp_range: tuple[str | None, str | None] | None,
    min_seq: int | None,
    max_seq: int | None,
    run_keys: Sequence[tuple[str, str]] | None,
) -> tuple[str, list[Any]]:
    """WHERE clause + bind parameters of the log scan.  A delta read
    (``min_seq``) walks its ``seq`` range: unary ``+`` keeps SQLite off the
    name indexes, whose range for a name is its whole history."""
    plus = "+" if min_seq is not None else ""
    clauses = [f"{plus}projid = ?"]
    params: list[Any] = [projid]
    if value_names is not None:
        placeholders = ",".join("?" for _ in value_names)
        clauses.append(f"{plus}value_name IN ({placeholders})")
        params.extend(value_names)
    if tstamp_range is not None:
        since, until = tstamp_range
        if since is not None:
            clauses.append("tstamp >= ?")
            params.append(since)
        if until is not None:
            clauses.append("tstamp <= ?")
            params.append(until)
    if min_seq is not None:
        clauses.append("seq > ?")
        params.append(min_seq)
    if max_seq is not None:
        clauses.append("seq <= ?")
        params.append(max_seq)
    if run_keys is not None:
        rows = ",".join("(?, ?)" for _ in run_keys)
        clauses.append(f"(tstamp, filename) IN (VALUES {rows})")
        for tstamp, filename in run_keys:
            params.extend((tstamp, filename))
    return " AND ".join(clauses), params


def long_format_records(
    db: RelationalStore,
    projid: str,
    value_names: Sequence[str] | None = None,
    *,
    tstamp_range: tuple[str | None, str | None] | None = None,
    min_seq: int | None = None,
    max_seq: int | None = None,
    run_keys: Sequence[tuple[str, str]] | None = None,
) -> list[AnnotatedLog]:
    """Join logs with loop dimensions, producing one annotated row per record.

    ``value_names`` of ``None`` returns all logged names.  ``ctx_id`` 0 means
    "logged outside any loop" and yields empty dimensions.

    All keyword filters are pushed down into SQLite rather than applied to
    Python objects: ``tstamp_range`` is a ``(since, until)`` pair of
    inclusive bounds (either side may be ``None``), ``min_seq``/``max_seq``
    bound the ``logs.seq`` rowid (exclusive / inclusive — the delta-read
    shape used by the pivot-view cache), and ``run_keys`` restricts the scan
    to the given ``(tstamp, filename)`` runs.  Only the loop rows of runs
    the filtered scan returned are fetched for annotation.
    """
    if value_names is not None and not value_names:
        return []
    if run_keys is not None and not run_keys:
        return []  # an empty run set selects nothing (and "IN (VALUES )" is not SQL)
    value_names = None if value_names is None else [str(n) for n in value_names]
    where, params = _logs_where(projid, value_names, tstamp_range, min_seq, max_seq, run_keys)
    log_rows = db.query(
        "SELECT tstamp, filename, ctx_id, value_name, value, value_type, seq"
        f" FROM logs WHERE {where}",
        params,
    )
    if not log_rows:
        return []
    # Append order.  The covering index hands the rows over name by name, each
    # name's nearly in seq order already: a merge of sorted runs here, where
    # ORDER BY would have SQLite copy every row through a sorter first.
    log_rows.sort(key=itemgetter(6))
    # Loop rows of exactly the runs the scan returned: one seek per run into
    # idx_loops_ancestry, a bounded number of runs per statement.
    runs = list(dict.fromkeys((row[0], row[1]) for row in log_rows))
    loops_index: dict[tuple[str, str], dict[int, tuple]] = {run: {} for run in runs}
    for start in range(0, len(runs), _RUNS_PER_FETCH):
        chunk = runs[start : start + _RUNS_PER_FETCH]
        loop_rows = db.query(
            f"WITH runs(tstamp, filename) AS (VALUES {','.join(['(?, ?)'] * len(chunk))})"
            " SELECT l.tstamp, l.filename, l.ctx_id, l.parent_ctx_id, l.loop_name,"
            " l.loop_iteration, l.iteration_value"
            " FROM runs CROSS JOIN loops AS l"
            " ON l.projid = ? AND l.tstamp = runs.tstamp AND l.filename = runs.filename",
            [*(part for run in chunk for part in run), projid],
        )
        for tstamp, filename, ctx_id, parent, loop_name, iteration, value in loop_rows:
            loops_index[(tstamp, filename)][ctx_id] = (parent, loop_name, iteration, value)

    positions: dict[tuple[str, str, int], LoopPosition] = {}
    annotated: list[AnnotatedLog] = []
    for tstamp, filename, ctx_id, value_name, value, value_type, seq in log_rows:
        context = (tstamp, filename, ctx_id)
        position = positions.get(context)
        if position is None:
            position = positions[context] = _loop_position(
                loops_index[(tstamp, filename)], ctx_id
            )
        annotated.append(
            AnnotatedLog(
                projid,
                tstamp,
                filename,
                ctx_id,
                value_name,
                decode_value(value, value_type),
                position,
                seq,
            )
        )
    return annotated


def long_format_frame(
    db: RelationalStore, projid: str, value_names: Sequence[str] | None = None
) -> DataFrame:
    """Long-format DataFrame view of :func:`long_format_records`."""
    records = long_format_records(db, projid, value_names)
    return from_records([r.as_row() for r in records])


# ---------------------------------------------------------------------------
# Watermarks (used by repro.query's materialized pivot-view cache)
# ---------------------------------------------------------------------------

def log_watermark(db: RelationalStore, projid: str) -> int:
    """Monotonic upper bound on the project's ``logs.seq`` (0 when empty).

    ``seq`` is an AUTOINCREMENT rowid, so it grows monotonically and a cached
    view annotated up to seq ``w`` is refreshed by reading ``seq > w``.  The
    probe is deliberately **database-global**: ``MAX(seq)`` without a projid
    filter is a single B-tree edge seek (SQLite's min/max optimization),
    while the per-project maximum would scan the project's whole index
    range.  A write to another project sharing the database can therefore
    advance the bound spuriously — the refresh it triggers finds an empty
    projid-filtered delta and is cheap; in the sharded service each project
    owns its database, so the bound is exact there.
    """
    row = db.query_one("SELECT COALESCE(MAX(seq), 0) FROM logs")
    return int(row[0]) if row else 0


def loop_watermark(db: RelationalStore, projid: str) -> int:
    """Monotonic upper bound on the project's ``loops.rowid`` (0 when empty).

    ``INSERT OR REPLACE`` rewrites a loop row under a *new* rowid, so this
    watermark advances on replacement too — exactly the writes that can
    change the ancestry of already-cached log records.  Database-global for
    the same O(1)-seek reason as :func:`log_watermark`.
    """
    row = db.query_one("SELECT COALESCE(MAX(rowid), 0) FROM loops")
    return int(row[0]) if row else 0


def runs_touched_since(db: RelationalStore, projid: str, loop_rowid: int) -> set[tuple[str, str]]:
    """Distinct ``(tstamp, filename)`` runs with loop rows newer than the
    watermark: a ``rowid`` range (``+projid``), not the project's loop index."""
    rows = db.query(
        "SELECT DISTINCT tstamp, filename FROM loops WHERE +projid = ? AND rowid > ?",
        (projid, loop_rowid),
    )
    return {(row[0], row[1]) for row in rows}


def git_view(versioning_repository: Any) -> DataFrame:
    """Materialize the virtual ``git`` table of Figure 1.

    Columns: ``vid``, ``filename``, ``parent_vid``, ``contents``.  The rows
    come from the content-addressed version store rather than SQLite, which
    is what makes the table "virtual" in the paper's data model.
    """
    rows: list[dict[str, Any]] = []
    for commit in versioning_repository.log():
        parent = commit.parent_vid
        for filename in sorted(commit.files):
            rows.append(
                {
                    "vid": commit.vid,
                    "filename": filename,
                    "parent_vid": parent,
                    "contents": versioning_repository.read_file(commit.vid, filename),
                }
            )
    return from_records(rows, columns=["vid", "filename", "parent_vid", "contents"])


def latest(frame: DataFrame, column: str = "tstamp") -> DataFrame:
    """Rows belonging to the most recent timestamp present in ``frame``.

    This is ``flor.utils.latest`` from the paper's Figure 6: given a frame
    spanning several runs, keep only the rows of the latest run.
    """
    if frame.empty or column not in frame:
        return frame
    maximum = frame[column].max()
    if maximum is None:
        return frame
    return frame[frame[column] == maximum]


def distinct_versions(db: RelationalStore, projid: str) -> list[str]:
    """All version ids recorded for a project, oldest first."""
    return [record.vid for record in Ts2VidRepository(db).all(projid)]
