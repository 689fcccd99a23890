"""SQL access to FlorDB context ("queried via Pandas or SQL", §1.2).

Two complementary surfaces:

* :func:`run_sql` — run a read-only SQL statement directly against the
  physical tables (``logs``, ``loops``, ``ts2vid``, ``obj_store``,
  ``build_deps``) and get a mini DataFrame back.
* :func:`register_pivot_view` / :func:`sql_over_names` — materialize the
  pivoted view of chosen log names as a temporary table named ``pivot`` so
  that run-level questions ("which run had the best recall?") are one
  ``SELECT`` away, mirroring how the paper positions the relational model.

Only statements that begin with ``SELECT`` or ``WITH`` are accepted; the
context store is append-only from the query surface.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Any, Sequence

from ..dataframe import DataFrame, from_records
from ..errors import DatabaseError
from .database import Database

_READ_ONLY_RE = re.compile(r"^\s*(SELECT|WITH)\b", re.IGNORECASE)
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_READ_ONLY_MESSAGE = "only SELECT/WITH statements may be run against the context store"

#: Authorizer action codes that a read-only statement may perform.  The
#: prefix regex alone is not enough — ``WITH t AS (SELECT 1) DELETE ...``
#: begins with WITH but mutates — so statement compilation is checked too.
_READ_ONLY_ACTIONS = {
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    getattr(sqlite3, "SQLITE_RECURSIVE", 33),
}


def _read_only_authorizer(action: int, *_args: Any) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ONLY_ACTIONS else sqlite3.SQLITE_DENY


def _require_read_only(sql: str) -> None:
    if not _READ_ONLY_RE.match(sql):
        raise DatabaseError(_READ_ONLY_MESSAGE)


def run_sql(db: Database, sql: str, params: Sequence[Any] = ()) -> DataFrame:
    """Run a read-only SQL statement and return the result as a DataFrame.

    Read-only is enforced twice: a cheap prefix check for a friendly error,
    then an SQLite authorizer during compilation that denies every action
    other than reading (catching writes smuggled past the prefix, e.g.
    ``WITH ... DELETE``).  SQLite errors — including authorizer denials and
    malformed statements — surface as :class:`~repro.errors.DatabaseError`.
    """
    _require_read_only(sql)
    try:
        with db.transaction() as connection:
            connection.set_authorizer(_read_only_authorizer)
            try:
                cursor = connection.execute(sql, tuple(params))
                columns = [description[0] for description in cursor.description or []]
                rows = cursor.fetchall()
            finally:
                connection.set_authorizer(None)
    except sqlite3.Error as exc:
        if "not authorized" in str(exc):
            raise DatabaseError(_READ_ONLY_MESSAGE) from exc
        raise DatabaseError(f"SQL error: {exc}") from exc
    return from_records((dict(zip(columns, row)) for row in rows), columns=columns)


def _quote_identifier(name: str) -> str:
    """Validate and quote a column name derived from a log value name."""
    if not _IDENTIFIER_RE.match(name):
        raise DatabaseError(
            f"log name {name!r} cannot be used as a SQL column; "
            "use letters, digits and underscores"
        )
    return f'"{name}"'


def register_pivot_view(
    db: Database,
    projid: str,
    names: Sequence[str],
    frame: DataFrame | None = None,
) -> list[str]:
    """Materialize the pivoted view of ``names`` into the temporary table ``pivot``.

    Returns the column names of the created table.  The table lives in the
    connection's temp schema, so it never dirties the durable database and
    is rebuilt on demand.  ``frame`` supplies a pre-built pivot — the query
    engine passes its cached view here so SQL reads share the materialized
    views instead of re-pivoting.
    """
    from ..core.dataframe_view import build_dataframe

    if frame is None:
        frame = build_dataframe(db, projid, list(names))
    columns = frame.columns or ["projid", "tstamp", "filename", *names]
    quoted = [_quote_identifier(c) for c in columns]
    with db.transaction() as connection:
        connection.execute("DROP TABLE IF EXISTS temp.pivot")
        # NUMERIC affinity lets SQLite treat numeric-looking log values as
        # numbers (so MAX(recall) compares 0.9 > 0.85, not lexicographically).
        connection.execute(
            f"CREATE TEMP TABLE pivot ({', '.join(f'{c} NUMERIC' for c in quoted)})"
        )
        if len(frame):
            placeholders = ", ".join("?" for _ in columns)
            connection.executemany(
                f"INSERT INTO pivot ({', '.join(quoted)}) VALUES ({placeholders})",
                [
                    tuple(_sqlite_value(row.get(c)) for c in columns)
                    for row in frame.to_records()
                ],
            )
    return columns


def _sqlite_value(value: Any) -> Any:
    """Coerce a pivoted cell to something SQLite can bind (scalars pass through)."""
    if value is None or isinstance(value, (int, float, str, bytes)):
        return value
    if isinstance(value, bool):  # pragma: no cover - bool is an int subclass
        return int(value)
    return str(value)


def sql_over_names(
    db: Database,
    projid: str,
    names: Sequence[str],
    sql: str,
    params: Sequence[Any] = (),
    frame: DataFrame | None = None,
) -> DataFrame:
    """Materialize the pivoted view of ``names`` and run ``sql`` against it.

    The statement refers to the view as ``pivot``; ``frame`` optionally supplies the pivot (see :func:`register_pivot_view`)::

        sql_over_names(db, "proj", ["acc", "recall"],
                       "SELECT tstamp, MAX(recall) AS best FROM pivot GROUP BY tstamp")
    """
    _require_read_only(sql)
    register_pivot_view(db, projid, names, frame=frame)
    return run_sql(db, sql, params)
