"""A small column-oriented DataFrame.

The frame stores columns as :class:`~repro.dataframe.column.Column` objects
keyed by name, with all columns required to have equal length.  Attribute
access resolves to columns (``df.acc``), matching the pandas-flavoured usage
in the FlorDB paper (e.g. ``infer[infer.document_value == name]``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import ColumnNotFoundError, DataFrameError, LengthMismatchError
from .column import Column, _is_missing


class DataFrame:
    """An ordered collection of equal-length named columns."""

    def __init__(self, data: Mapping[str, Iterable[Any]] | None = None):
        self._columns: dict[str, Column] = {}
        self._length = 0
        if data:
            for name, values in data.items():
                self[name] = values if not isinstance(values, Column) else values.to_list()

    # ----------------------------------------------------------------- shape
    @property
    def columns(self) -> list[str]:
        return list(self._columns.keys())

    @property
    def shape(self) -> tuple[int, int]:
        return (self._length, len(self._columns))

    @property
    def empty(self) -> bool:
        return self._length == 0

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_string(max_rows=10)

    # -------------------------------------------------------------- get / set
    def __getattr__(self, name: str) -> Column:
        columns = object.__getattribute__(self, "_columns")
        if name in columns:
            return columns[name]
        raise AttributeError(name)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            if key not in self._columns:
                raise ColumnNotFoundError(key, tuple(self._columns))
            return self._columns[key]
        if isinstance(key, Column):
            mask = [bool(v) and not _is_missing(v) for v in key.to_list()]
            if len(mask) != self._length:
                raise LengthMismatchError(
                    f"boolean mask of length {len(mask)} does not match {self._length} rows"
                )
            indices = [i for i, keep in enumerate(mask) if keep]
            return self.take(indices)
        if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
            return self.select(list(key))
        if isinstance(key, (list, tuple)) and all(isinstance(k, bool) for k in key):
            indices = [i for i, keep in enumerate(key) if keep]
            return self.take(indices)
        if isinstance(key, slice):
            return self.take(range(*key.indices(self._length)))
        raise DataFrameError(f"unsupported indexer: {key!r}")

    def __setitem__(self, name: str, values: Any) -> None:
        if isinstance(values, Column):
            values = values.to_list()
        elif not isinstance(values, (list, tuple)):
            values = [values] * (self._length if self._columns else 1)
        else:
            values = list(values)
        if self._columns and len(values) != self._length:
            raise LengthMismatchError(
                f"column {name!r} has {len(values)} values; frame has {self._length} rows"
            )
        if not self._columns:
            self._length = len(values)
        self._columns[str(name)] = Column(name, values)

    def get(self, name: str, default: Any = None) -> Any:
        return self._columns.get(name, default)

    # ------------------------------------------------------------ row access
    def row(self, index: int) -> dict[str, Any]:
        """Return row ``index`` as a dict keyed by column name."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise DataFrameError(f"row index {index} out of range for {self._length} rows")
        return {name: col[index] for name, col in self._columns.items()}

    def itertuples(self) -> Iterator[dict[str, Any]]:
        for i in range(self._length):
            yield self.row(i)

    iterrows = itertuples

    def to_records(self) -> list[dict[str, Any]]:
        """Materialize the frame as a list of row dicts."""
        names = list(self._columns)
        if not names:
            return [{} for _ in range(self._length)]
        return [dict(zip(names, values)) for values in zip(*self._columns.values())]

    to_dicts = to_records

    def to_dict(self, orient: str = "list") -> dict[str, Any]:
        if orient == "list":
            return {name: col.to_list() for name, col in self._columns.items()}
        if orient == "records":
            return self.to_records()  # type: ignore[return-value]
        raise DataFrameError(f"unsupported orient: {orient!r}")

    # ----------------------------------------------------------- projections
    def select(self, names: Sequence[str]) -> "DataFrame":
        out = DataFrame()
        for name in names:
            if name not in self._columns:
                raise ColumnNotFoundError(name, tuple(self._columns))
            out[name] = self._columns[name].to_list()
        if not names:
            out._length = self._length
        return out

    def drop(self, names: str | Sequence[str]) -> "DataFrame":
        if isinstance(names, str):
            names = [names]
        keep = [c for c in self._columns if c not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        out = DataFrame()
        for name, col in self._columns.items():
            out[mapping.get(name, name)] = col.to_list()
        return out

    def assign(self, **new_columns: Any) -> "DataFrame":
        out = self.copy()
        for name, values in new_columns.items():
            if callable(values):
                values = values(out)
            out[name] = values
        return out

    def copy(self) -> "DataFrame":
        out = DataFrame()
        for name, col in self._columns.items():
            out[name] = col.to_list()
        out._length = self._length
        return out

    def take(self, indices: Iterable[int]) -> "DataFrame":
        indices = list(indices)
        out = DataFrame()
        for name, col in self._columns.items():
            out[name] = col.take(indices).to_list()
        out._length = len(indices)
        return out

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(range(min(n, self._length)))

    def tail(self, n: int = 5) -> "DataFrame":
        start = max(0, self._length - n)
        return self.take(range(start, self._length))

    # -------------------------------------------------------------- filtering
    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "DataFrame":
        """Keep rows for which ``predicate(row_dict)`` is truthy."""
        indices = [i for i in range(self._length) if predicate(self.row(i))]
        return self.take(indices)

    def dropna(self, subset: Sequence[str] | None = None) -> "DataFrame":
        names = list(subset) if subset else self.columns
        for name in names:
            if name not in self._columns:
                raise ColumnNotFoundError(name, tuple(self._columns))
        indices = [
            i
            for i in range(self._length)
            if not any(_is_missing(self._columns[name][i]) for name in names)
        ]
        return self.take(indices)

    def fillna(self, value: Any) -> "DataFrame":
        out = DataFrame()
        for name, col in self._columns.items():
            out[name] = col.fillna(value).to_list()
        out._length = self._length
        return out

    def drop_duplicates(self, subset: Sequence[str] | None = None, keep: str = "first") -> "DataFrame":
        names = list(subset) if subset else self.columns
        seen: dict[tuple, int] = {}
        order = range(self._length) if keep == "first" else range(self._length - 1, -1, -1)
        for i in order:
            key = tuple(repr(self._columns[name][i]) for name in names)
            seen.setdefault(key, i)
        kept = sorted(seen.values())
        return self.take(kept)

    # ---------------------------------------------------------------- sorting
    def sort_values(self, by: str | Sequence[str], ascending: bool = True) -> "DataFrame":
        names = [by] if isinstance(by, str) else list(by)
        for name in names:
            if name not in self._columns:
                raise ColumnNotFoundError(name, tuple(self._columns))

        def key(idx: int) -> tuple:
            parts = []
            for name in names:
                value = self._columns[name][idx]
                parts.append((1, "") if _is_missing(value) else (0, value))
            return tuple(parts)

        order = sorted(range(self._length), key=key, reverse=not ascending)
        return self.take(order)

    # --------------------------------------------------------------- groupby
    def groupby(self, by: str | Sequence[str]) -> "GroupBy":
        names = [by] if isinstance(by, str) else list(by)
        for name in names:
            if name not in self._columns:
                raise ColumnNotFoundError(name, tuple(self._columns))
        return GroupBy(self, names)

    # ---------------------------------------------------------------- display
    def to_string(self, max_rows: int = 30) -> str:
        """Render a fixed-width table, truncated to ``max_rows`` rows."""
        names = self.columns
        if not names:
            return "DataFrame(empty)"
        rows = [self.row(i) for i in range(min(self._length, max_rows))]
        rendered = [[str("" if _is_missing(r[n]) else r[n]) for n in names] for r in rows]
        widths = [
            max(len(names[j]), *(len(row[j]) for row in rendered)) if rendered else len(names[j])
            for j in range(len(names))
        ]
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        lines = [header, "  ".join("-" * w for w in widths)]
        for row in rendered:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if self._length > max_rows:
            lines.append(f"... ({self._length} rows total)")
        return "\n".join(lines)

    # --------------------------------------------------------------- equality
    def equals(self, other: "DataFrame") -> bool:
        if not isinstance(other, DataFrame):
            return False
        if self.columns != other.columns or len(self) != len(other):
            return False
        return all(self._columns[name].equals(other._columns[name]) for name in self.columns)


class GroupBy:
    """Grouped view over a DataFrame, produced by :meth:`DataFrame.groupby`."""

    def __init__(self, frame: DataFrame, by: list[str]):
        self._frame = frame
        self._by = by
        self._groups: dict[tuple, list[int]] = {}
        for i in range(len(frame)):
            key = tuple(frame[name][i] for name in by)
            self._groups.setdefault(key, []).append(i)

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[tuple, list[int]]:
        return {key: list(idx) for key, idx in self._groups.items()}

    def __iter__(self) -> Iterator[tuple[tuple, DataFrame]]:
        for key, indices in self._groups.items():
            yield key, self._frame.take(indices)

    def agg(self, spec: Mapping[str, str | Callable[[Column], Any]]) -> DataFrame:
        """Aggregate columns per group.

        ``spec`` maps column name to either the name of a Column reduction
        (``"mean"``, ``"sum"``, ``"min"``, ``"max"``, ``"count"``, ``"nunique"``,
        ``"first"``, ``"last"``) or a callable receiving the group's Column.
        """
        out: dict[str, list[Any]] = {name: [] for name in self._by}
        for column in spec:
            out[column] = []
        for key, indices in self._groups.items():
            for name, part in zip(self._by, key):
                out[name].append(part)
            for column, how in spec.items():
                if column not in self._frame:
                    raise ColumnNotFoundError(column, tuple(self._frame.columns))
                group_col = self._frame[column].take(indices)
                if callable(how):
                    out[column].append(how(group_col))
                elif how == "first":
                    out[column].append(group_col[0] if len(group_col) else None)
                elif how == "last":
                    out[column].append(group_col[len(group_col) - 1] if len(group_col) else None)
                elif how in {"mean", "sum", "min", "max", "count", "nunique", "any", "all"}:
                    out[column].append(getattr(group_col, how)())
                else:
                    raise DataFrameError(f"unsupported aggregation: {how!r}")
        return DataFrame(out)

    def size(self) -> DataFrame:
        out: dict[str, list[Any]] = {name: [] for name in self._by}
        out["size"] = []
        for key, indices in self._groups.items():
            for name, part in zip(self._by, key):
                out[name].append(part)
            out["size"].append(len(indices))
        return DataFrame(out)
