"""SQL access to FlorDB context ("queried via Pandas or SQL", §1.2).

Two complementary surfaces:

* :func:`run_sql` — run a read-only SQL statement directly against the
  physical tables (``logs``, ``loops``, ``ts2vid``, ``obj_store``,
  ``build_deps``) and get a mini DataFrame back, with whether the answer
  holds until the next commit (the query cache keeps only those).
* :func:`register_pivot_view` / :func:`sql_over_names` — materialize the
  pivoted view of chosen log names as a temporary table named ``pivot`` so
  that run-level questions ("which run had the best recall?") are one
  ``SELECT`` away, mirroring how the paper positions the relational model.

Only statements that begin with ``SELECT`` or ``WITH`` (after any leading
comments) are accepted; the context store is append-only from the query
surface.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Any, NamedTuple, Sequence

from ..dataframe import DataFrame, from_records
from ..errors import DatabaseError
from .database import Database
from .schema import TABLES

#: Whitespace, ``--`` and ``/* */`` comments, then the keyword.  Every
#: alternative starts with its own character and ends in one place, so the
#: match is linear in the prefix.
_READ_ONLY_RE = re.compile(
    r"^(?:\s|--[^\n]*\n|/\*(?:[^*]|\*(?!/))*\*/)*(SELECT|WITH)\b", re.IGNORECASE
)
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

#: SQLite built-ins whose result is a function of their arguments alone
#: (aggregates, window, string, JSON and math functions).  The date/time
#: functions, ``CURRENT_TIMESTAMP`` & co., ``random()`` and anything not
#: named here make a statement's answer change without a commit.
DETERMINISTIC_FUNCTIONS = frozenset(
    """
    count sum total avg min max group_concat string_agg
    row_number rank dense_rank percent_rank cume_dist ntile lag lead
    first_value last_value nth_value
    abs char coalesce concat concat_ws format glob hex ifnull iif instr length
    like likelihood likely lower ltrim nullif octet_length printf quote replace
    round rtrim sign soundex substr substring trim typeof unhex unicode unlikely
    upper zeroblob
    json json_array json_array_length json_extract json_insert json_object
    json_patch json_quote json_remove json_replace json_set json_type json_valid
    json_group_array json_group_object
    acos acosh asin asinh atan atan2 atanh ceil ceiling cos cosh degrees exp
    floor ln log log10 log2 mod pi pow power radians sin sinh sqrt tan tanh trunc
    """.split()
)


class SqlAnswer(NamedTuple):
    """What :func:`run_sql` read, and whether reading it again before the
    next commit would read the same (``stable``)."""

    frame: DataFrame
    stable: bool


class _ReadGuard:
    """The authorizer :func:`run_sql` installs for one execution.

    It denies every action but reading, and notes what the statement
    reads: a statement is *stable* when it read only the physical tables
    and called only :data:`DETERMINISTIC_FUNCTIONS`.  Installing it expires
    the connection's prepared statements, so it sees every execution, a
    repeat of a cached statement included.
    """

    __slots__ = ("compiled", "volatile")

    def __init__(self) -> None:
        self.compiled = False
        self.volatile = False

    def __call__(self, action: int, arg1: Any, arg2: Any, dbname: Any, _source: Any) -> int:
        if action not in _READ_ONLY_ACTIONS:
            return sqlite3.SQLITE_DENY
        self.compiled = True
        if action == sqlite3.SQLITE_FUNCTION:
            self.volatile |= str(arg2).lower() not in DETERMINISTIC_FUNCTIONS
        elif action == sqlite3.SQLITE_READ:  # not the temp pivot, not the schema
            self.volatile |= dbname == "temp" or str(arg1).lower() not in TABLES
        return sqlite3.SQLITE_OK


def _require_read_only(sql: str) -> None:
    if not _READ_ONLY_RE.match(sql):
        raise DatabaseError(_READ_ONLY_MESSAGE)


def run_sql(db: Database, sql: str, params: Sequence[Any] = ()) -> SqlAnswer:
    """Run a read-only SQL statement; its result as a DataFrame, and whether
    it is stable (see :class:`_ReadGuard`) — what the query cache may keep.

    Read-only is enforced twice: a cheap prefix check for a friendly error,
    then an SQLite authorizer during compilation that denies every action
    other than reading (catching writes smuggled past the prefix, e.g.
    ``WITH ... DELETE``).  SQLite errors — including authorizer denials and
    malformed statements — surface as :class:`~repro.errors.DatabaseError`.
    """
    _require_read_only(sql)
    guard = _ReadGuard()
    try:
        with db.transaction() as connection:
            connection.set_authorizer(guard)
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
    frame = from_records((dict(zip(columns, row)) for row in rows), columns=columns)
    return SqlAnswer(frame, guard.compiled and not guard.volatile)


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
    return run_sql(db, sql, params).frame
