"""Frame-level operations: construction from records, concat, merge, pivot.

``pivot_logs`` implements the core transformation behind ``flor.dataframe``:
the ``logs`` table stores one row per logged value, and the user-facing frame
has one row per loop context with one column per requested log name (the
"pivoted view" of the paper's Section 2).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..errors import ColumnNotFoundError, DataFrameError
from .frame import DataFrame


def from_records(records: Iterable[Mapping[str, Any]], columns: Sequence[str] | None = None) -> DataFrame:
    """Build a DataFrame from an iterable of row dicts.

    Column order follows ``columns`` when given, otherwise first-seen order
    across all records.  Missing keys become nulls.
    """
    rows = list(records)
    if columns is None:
        ordered: list[str] = []
        for row in rows:
            for key in row:
                if key not in ordered:
                    ordered.append(key)
        columns = ordered
    # An empty ``rows`` still yields the requested schema (empty columns).
    return DataFrame({name: [row.get(name) for row in rows] for name in columns})


def concat(frames: Sequence[DataFrame]) -> DataFrame:
    """Stack frames vertically, unioning columns (missing cells become null)."""
    frames = [f for f in frames if f is not None]
    if not frames:
        return DataFrame()
    columns: list[str] = []
    for frame in frames:
        for name in frame.columns:
            if name not in columns:
                columns.append(name)
    records: list[dict[str, Any]] = []
    for frame in frames:
        records.extend(frame.to_records())
    return from_records(records, columns)


def merge(
    left: DataFrame,
    right: DataFrame,
    on: str | Sequence[str],
    how: str = "inner",
    suffixes: tuple[str, str] = ("_x", "_y"),
) -> DataFrame:
    """Join two frames on equality of the ``on`` columns.

    Supports ``inner`` and ``left`` joins, which is all the library needs for
    composing log views with build/version metadata.
    """
    if how not in {"inner", "left"}:
        raise DataFrameError(f"unsupported join type: {how!r}")
    keys = [on] if isinstance(on, str) else list(on)
    for key in keys:
        if key not in left:
            raise ColumnNotFoundError(key, tuple(left.columns))
        if key not in right:
            raise ColumnNotFoundError(key, tuple(right.columns))

    right_rows: dict[tuple, list[dict[str, Any]]] = {}
    for row in right.to_records():
        right_rows.setdefault(tuple(row[k] for k in keys), []).append(row)

    overlap = {c for c in right.columns if c in left.columns and c not in keys}
    out_records: list[dict[str, Any]] = []
    for row in left.to_records():
        key = tuple(row[k] for k in keys)
        matches = right_rows.get(key, [])
        if not matches:
            if how == "left":
                merged = _suffix_left(row, overlap, suffixes)
                for name in right.columns:
                    if name in keys:
                        continue
                    out_name = name + suffixes[1] if name in overlap else name
                    merged[out_name] = None
                out_records.append(merged)
            continue
        for match in matches:
            merged = _suffix_left(row, overlap, suffixes)
            for name, value in match.items():
                if name in keys:
                    continue
                out_name = name + suffixes[1] if name in overlap else name
                merged[out_name] = value
            out_records.append(merged)
    columns: list[str] = []
    for record in out_records:
        for name in record:
            if name not in columns:
                columns.append(name)
    if not out_records:
        columns = _merged_columns(left, right, keys, overlap, suffixes)
    return from_records(out_records, columns)


def _suffix_left(row: Mapping[str, Any], overlap: set[str], suffixes: tuple[str, str]) -> dict[str, Any]:
    return {(k + suffixes[0] if k in overlap else k): v for k, v in row.items()}


def _merged_columns(
    left: DataFrame,
    right: DataFrame,
    keys: list[str],
    overlap: set[str],
    suffixes: tuple[str, str],
) -> list[str]:
    columns = [c + suffixes[0] if c in overlap else c for c in left.columns]
    for c in right.columns:
        if c in keys:
            continue
        columns.append(c + suffixes[1] if c in overlap else c)
    return columns


def pivot_logs(
    records: Iterable[Mapping[str, Any]],
    value_names: Sequence[str],
    dimension_columns: Sequence[str],
    value_key: str = "value_name",
    value_column: str = "value",
) -> DataFrame:
    """Pivot long-format log records into one row per logging context.

    Parameters
    ----------
    records:
        Long-format rows, each containing the dimension columns plus
        ``value_key`` (the log name) and ``value_column`` (the logged value).
    value_names:
        Log names that become columns of the output frame.
    dimension_columns:
        Columns identifying a logging context (projid, tstamp, filename and
        loop iteration columns); rows sharing all dimensions merge into one
        output row.
    """
    wanted = set(value_names)
    grouped: dict[tuple, dict[str, Any]] = {}
    order: list[tuple] = []
    for record in records:
        name = record.get(value_key)
        if name not in wanted:
            continue
        key = tuple(record.get(dim) for dim in dimension_columns)
        if key not in grouped:
            grouped[key] = {dim: record.get(dim) for dim in dimension_columns}
            order.append(key)
        grouped[key][name] = record.get(value_column)
    columns = list(dimension_columns) + list(value_names)
    return from_records((grouped[key] for key in order), columns)
