#!/usr/bin/env python3
"""Enforce the storage seam (``sqlite3`` stays behind the storage layer), the
metrics seam (no component holds an optional registry), the replay seam
(one planner: only the hindsight engine decides which runs replay), the
body seam (one builder of the service's ``dataframe`` / ``sql`` answer) and
the writer seam (one record path and one writer thread: every handle writes
rows and checkpoints through its session's background flusher), the blob
seam (one blob layout, no cold tier), the schema seam (one module spells
the physical schema and its DDL stamp), the WAL seam (one module spells
the WAL's upkeep), the settings seam (one value per setting), the wire
seam (one HTTP/1.1 codec), the SQL seam (every SQL read goes through the
query cache, and one module spells its freshness value) and the rest seam
(one module decides that a closed database file is unchanged) and the
append seam (a retried append lands once by its key, with no drop counters
to watch).

The whole point of the :mod:`repro.storage` protocols is that every layer
above storage is backend-agnostic — repositories, the query engine, the
flusher, the service pool and the job store talk to
:class:`~repro.storage.protocols.RelationalStore`, never to SQLite
directly.  That property only holds while nobody re-introduces a direct
``sqlite3`` import, so this lint walks ``src/repro`` and fails when any
module outside ``repro.storage`` or ``repro.relational`` imports
``sqlite3`` (via ``import sqlite3``, ``from sqlite3 import ...``, or an
aliased form).

The same walk guards a second seam: every instrumented component always
holds a :class:`~repro.obs.MetricsRegistry` scope and records each event
once, so there is no "metrics off" branch to test for.  A comparison of
anything named ``metrics`` with ``None`` (``if self.metrics is not None``)
anywhere under ``src/repro`` means an optional registry — and with it a
second, hand-kept copy of the counts — is creeping back in.

A third seam keeps the replay planner single: ``replay_source`` is called
only by :mod:`repro.core.hindsight` and :mod:`repro.core.replay` (every
replay collects, the engine lands), and nothing under ``repro.jobs`` names
``version_epochs``, ``seen_vids`` or ``first_epoch`` — the job executor asks
the engine for its plan instead of walking epochs or deduping version ids
itself.

A fourth keeps the read answer single: the wire form lives in
:mod:`repro.dataframe.wire`, where only ``frame_body`` may call
``.to_records()`` or spell a dict with a ``"records"`` key, and
:mod:`repro.service.app` may do neither — a second body builder would be a
second wire format, and one the pivot cache's spliced bodies know nothing
about.

A fifth keeps the record path single: nothing under ``src/repro`` names
``flush_mode`` or ``sync_flush`` (the deleted inline mode and its seven
spellings) or ``AsyncCheckpointWriter`` / ``checkpoint_writer`` (the deleted
second writer thread), a flusher's ``submit`` / ``submit_checkpoint`` is
called only by :mod:`repro.core.session` and :mod:`repro.core.checkpoint`,
``encode_value`` is named only by :mod:`repro.relational.records`,
:mod:`repro.runtime.buffer` and :mod:`repro.runtime.flusher` (a value is
encoded at the stage call or by the writer, never in a pass of its own on
a request thread), and the ``obj_store`` insert is spelled once, in
:mod:`repro.relational.repositories` (``INSERT_OBJECT_SQL``, shared by
``ObjectRepository.put`` and the flusher) — one writer per database handle,
so every write is counted, tailed and invalidates the query cache, and a
checkpoint rides a flusher transaction instead of one of its own.  And
``threading.Thread(`` is spelled once under :mod:`repro.runtime` and
:mod:`repro.core`, in :mod:`repro.runtime.flusher` (a draining caller may
write, but no second writer thread grows back), and above the stores a
handle's ``.checkpoint()`` is called only in that thread's loop, ``_run`` (a
caller's write probes the WAL and wakes the thread; it never folds it).

A sixth keeps blobs in one layout: no module other than
:mod:`repro.versioning.objects` (which unpacks archives older releases
left) spells ``pack-``, ``index.json`` or an ``archive`` path segment in a
string — a cold tier would need all three.

A seventh keeps the physical schema in one place: no module other than
:mod:`repro.relational.schema` spells ``CREATE INDEX``, ``DROP INDEX`` or
``PRAGMA user_version`` in a string — the script there runs once per edit
(its text is the ``user_version`` stamp), so an index created anywhere else
would be created on some files and not others.  And the schema script
itself may not ``CREATE`` the indexes it dropped because no statement read
them (``idx_logs_name``, ``idx_logs_ctx``, ``idx_loops_parent``).

An eighth keeps the WAL's upkeep in one place: no module other than
:mod:`repro.relational.database` spells ``wal_checkpoint``,
``wal_autocheckpoint`` or ``journal_size_limit`` in a string or a name —
``Database.checkpoint`` runs a handle's checkpoints on a second connection,
off every commit, once its writer thread takes them over, so a checkpoint
spelled anywhere else would land back on a commit or under a lock a reader
waits on.

A ninth keeps one value per setting: no function under ``src/repro`` takes a
parameter named after a setting that only tests ever set and that is now a
constant (``extra_globals``, ``fair_share``, ``histogram_window``,
``module_alias``, ``statement_filter``, ``create_default``,
``proxy_timeout``, ``register_timeout``, ``vnodes``), and
:mod:`repro.core.hindsight` does not name ``ThreadPoolExecutor`` — a replay
is pure-Python ``exec``, so it runs serially or in processes.

A tenth keeps one HTTP/1.1 codec: no module under ``src/repro`` imports
``http.client``, ``email`` or ``urllib.request`` (the stdlib parsers
:mod:`repro.webapp.http1` replaced on both ends of a socket), only
:mod:`repro.service.server` imports ``http.server`` (for its listening
socket, not its handler) or defines a ``parse_request``, and only
:mod:`repro.webapp.http1` splits a head — no other module cuts text at a
CRLF (``split`` / ``partition`` / ``find`` / ``index`` and their right-hand
forms) or opens a line reader on a socket with ``.makefile()``.  And
:mod:`repro.core.propagation` calls no ``.splitlines()``: it places
statements by the line numbers ``ast`` gives, which break at ``\\n``,
``\\r\\n`` and ``\\r`` only.

An eleventh keeps one freshness rule for every read: ``run_sql`` is named
(imported or called) only by :mod:`repro.query.engine`, which runs a plain
statement through the query cache, and :mod:`repro.relational.sql`, which
defines it — so no route answers SQL past the cache — and only
:mod:`repro.relational.database` spells ``data_version``, the half of
``Database.write_version`` that sees other connections' commits; a second
probe elsewhere would be a second notion of "unchanged".

A twelfth keeps one notion of a file at rest: only
:mod:`repro.relational.database` spells ``-wal`` in a string or
``st_ctime_ns`` in a string or a name — ``Database.at_rest`` is what lets
the service pool answer a closed tenant's read without opening SQLite, so a
second, laxer check elsewhere (one that forgot the WAL, or the ctime a
restored copy moves) would serve views a write has outdated.

A thirteenth keeps one exactly-once rule for appends: no name under
``src/repro`` is ``dropped_rows_total``, ``forget_unsealed``, ``_seal_state``
or ``incarnation``, and no string is ``"pool.dropped_rows"`` — the drop-counter
bank, shard incarnations and seal protocol that keyed appends replaced — and
only :mod:`repro.relational` spells the ``append_keys`` table in a string, so
the writer's in-transaction key check and the route's lookup read the one
table the schema creates.

Detection is AST-based — docstrings and comments that merely *mention*
sqlite3 or the guard are fine; only actual statements count.

Exit status is the number of violations, so CI can run simply::

    python tools/check_storage_seam.py

Run it locally after touching anything under ``src/repro``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Packages allowed to import sqlite3: the storage layer itself and the
#: relational package that hosts the reference RelationalStore backend.
ALLOWED_PREFIXES = ("repro.storage", "repro.relational")

FORBIDDEN_MODULE = "sqlite3"


def module_name(src_root: Path, path: Path) -> str:
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def sqlite_imports(tree: ast.AST) -> list[int]:
    """Line numbers of sqlite3 import statements in a parsed module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == FORBIDDEN_MODULE:
                    lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                if node.module.split(".")[0] == FORBIDDEN_MODULE:
                    lines.append(node.lineno)
    return lines


def metrics_none_guards(tree: ast.AST) -> list[int]:
    """Line numbers comparing a ``metrics`` name or attribute with ``None``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        subject, other = node.left, node.comparators[0]
        name = getattr(subject, "id", None) or getattr(subject, "attr", None)
        if (
            name == "metrics"
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(other, ast.Constant)
            and other.value is None
        ):
            lines.append(node.lineno)
    return lines


#: The only modules that may call ``replay_source``, and the planner's names
#: that must not reappear in the job layer.
REPLAY_CALLERS = ("repro.core.hindsight", "repro.core.replay")
PLANNER_NAMES = {"version_epochs", "seen_vids", "first_epoch"}


def second_planner_signs(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where ``name`` replays or plans outside the hindsight engine."""
    found = []
    for node in ast.walk(tree):
        used = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.Call) and name not in REPLAY_CALLERS:
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee == "replay_source":
                found.append((node.lineno, "calls replay_source"))
        elif used in PLANNER_NAMES and name.startswith("repro.jobs"):
            found.append((node.lineno, f"names {used}"))
    return found


#: Modules that could grow a second body builder, and the one function (in
#: the wire module) that turns a frame into a read's body.
BODY_MODULES, BODY_BUILDER = ("repro.service.app", "repro.dataframe.wire"), "frame_body"


def second_body_builders(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a frame is turned into a body outside the builder."""
    inside = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == BODY_BUILDER
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "to_records":
            found.append((node.lineno, "calls .to_records()"))
        elif isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value == "records" for key in node.keys
        ):
            found.append((node.lineno, 'spells a {"records": ...} literal'))
    return found


#: The deleted writers' spellings, the modules that hand work to a flusher,
#: and the one module that spells the ``obj_store`` insert.
DELETED_WRITER_NAMES = {"flush_mode", "sync_flush", "AsyncCheckpointWriter", "checkpoint_writer"}
WRITER_MODULES = ("repro.core.session", "repro.core.checkpoint")
#: The modules that may name ``encode_value``: its definition, the staging
#: rule that encodes what it does not defer, and the writer that encodes the rest.
ENCODER_MODULES = ("repro.relational.records", "repro.runtime.buffer", "repro.runtime.flusher")
OBJECT_INSERT_MODULE = "repro.relational.repositories"
OBJECT_INSERT = re.compile(r"\bINSERT\b[^;]*?\bINTO\s+obj_store\b", re.IGNORECASE)
#: The one module that starts a thread under the packages that record, and
#: its writer loop, the only caller of a handle's ``.checkpoint()`` above the
#: stores (which delegate it).
WRITER_THREAD_MODULE, WRITER_LOOP = "repro.runtime.flusher", "_run"
RECORDING_PACKAGES = ("repro.runtime", "repro.core")
STORE_PACKAGES = ("repro.storage", "repro.relational")


def in_packages(name: str, packages: tuple[str, ...]) -> bool:
    return any(name == package or name.startswith(package + ".") for package in packages)


def identifiers(node: ast.AST) -> list[str]:
    """The names a node spells: a use, a keyword, a definition or an import."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    found = [getattr(node, field, None) for field in ("id", "attr", "arg", "name", "asname")]
    if isinstance(node, ast.alias):
        found.extend(node.name.split("."))
    return [name for name in found if isinstance(name, str)]


def second_record_paths(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a deleted writer, a second submitter, a second
    ``obj_store`` insert, a second value-encoding pass, a second thread where
    the flusher's is the one, or a WAL checkpoint off its loop reappears."""
    found = []
    for node in ast.walk(tree):
        names = set(identifiers(node))
        for used in names & DELETED_WRITER_NAMES:
            found.append((node.lineno, f"names {used}"))
        if name not in ENCODER_MODULES and "encode_value" in names:
            found.append((node.lineno, "names encode_value"))
        if (
            name not in WRITER_MODULES
            and isinstance(node, ast.Call)
            and getattr(node.func, "attr", "").startswith("submit")
        ):
            owner = node.func.value
            owner_name = getattr(owner, "attr", None) or getattr(owner, "id", None) or ""
            if owner_name.endswith("flusher"):
                found.append((node.lineno, f"calls .{owner_name}.{node.func.attr}()"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    if in_packages(name, RECORDING_PACKAGES):
        threads = [node for node in calls if "Thread" in identifiers(node.func)]
        allowed = 1 if name == WRITER_THREAD_MODULE else 0
        found.extend((node.lineno, "starts a second writer thread") for node in threads[allowed:])
    if not in_packages(name, STORE_PACKAGES):
        loop = [ast.walk(node) for node in ast.walk(tree) if getattr(node, "name", None) == WRITER_LOOP]
        in_loop = {id(node) for walk in loop for node in walk} if name == WRITER_THREAD_MODULE else set()
        found.extend(
            (node.lineno, "calls .checkpoint() outside the writer thread's loop")
            for node in calls
            if getattr(node.func, "attr", None) == "checkpoint" and not node.args and id(node) not in in_loop
        )
    inserts = [node for node in code_strings(tree) if OBJECT_INSERT.search(node.value)]
    if name != OBJECT_INSERT_MODULE:
        found.extend((node.lineno, "spells the obj_store insert") for node in inserts)
    else:
        found.extend((node.lineno, "spells the obj_store insert twice") for node in inserts[1:])
    return found


#: The one module that may name the legacy archive layout, and its names.
LAYOUT_MODULE = "repro.versioning.objects"


def code_strings(tree: ast.AST) -> list[ast.Constant]:
    """Every string constant in a module except its docstrings."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def cold_tier_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a string names a pack file, an index or an archive dir."""
    found = []
    for node in code_strings(tree):
        if "pack-" in node.value or "index.json" in node.value or "archive" in node.value.split("/"):
            found.append((node.lineno, f"spells {node.value!r}"))
    return found


#: The one module that spells index DDL and the DDL stamp, and the indexes it
#: dropped because no statement read them.
SCHEMA_MODULE = "repro.relational.schema"
SCHEMA_DDL = re.compile(r"\b(?:CREATE\s+INDEX|DROP\s+INDEX|PRAGMA\s+user_version)\b", re.IGNORECASE)
DROPPED_INDEXES = ("idx_logs_name", "idx_logs_ctx", "idx_loops_parent")
DROPPED_CREATE = re.compile(
    r"\bCREATE\b[^;]*?\b(" + "|".join(DROPPED_INDEXES) + r")\b", re.IGNORECASE
)


def stray_schema_ddl(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where index DDL or the stamp is spelled outside the schema
    module, or where the schema script creates an index it dropped."""
    found = []
    for node in code_strings(tree):
        if name != SCHEMA_MODULE:
            found.extend((node.lineno, f"spells {m.group(0)!r}") for m in SCHEMA_DDL.finditer(node.value))
            continue
        sql = re.sub(r"--[^\n]*", "", node.value)  # a comment may name a dropped index
        for match in DROPPED_CREATE.finditer(sql):
            line = node.lineno + sql.count("\n", 0, match.start(1))
            found.append((line, f"creates {match.group(1)}, an index no statement reads"))
    return found


#: The one module that spells the WAL's upkeep, and its spellings.
WAL_MODULE = "repro.relational.database"
WAL_UPKEEP = re.compile(r"\b(?:wal_checkpoint|wal_autocheckpoint|journal_size_limit)\b", re.IGNORECASE)


def stray_wal_upkeep(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a string or a name spells a WAL upkeep pragma."""
    found = [
        (node.lineno, f"spells {match.group(0)!r}")
        for node in code_strings(tree)
        for match in WAL_UPKEEP.finditer(node.value)
    ]
    for node in ast.walk(tree):
        found.extend(
            (node.lineno, f"names {used}") for used in identifiers(node) if WAL_UPKEEP.fullmatch(used)
        )
    return found


#: Parameters deleted because no caller outside the tests set another value,
#: and the module whose thread pool went with ``parallelism="thread"``.
DELETED_SETTINGS = {
    "extra_globals", "fair_share", "histogram_window", "module_alias", "statement_filter",
    "create_default", "proxy_timeout", "register_timeout", "vnodes",
}
REPLAY_MODULE = "repro.core.hindsight"


def deleted_settings(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a deleted setting is a parameter again, or the
    replay engine names a thread pool."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg in DELETED_SETTINGS:
            found.append((node.lineno, f"takes a {node.arg!r} parameter"))
        elif name == REPLAY_MODULE and "ThreadPoolExecutor" in identifiers(node):
            found.append((node.lineno, "names ThreadPoolExecutor"))
    return found


#: Stdlib HTTP parsers the codec replaced, the one request-head parser, the
#: one module that splits a head, and the one that may import ``http.server``.
STDLIB_WIRE = ("http.client", "email", "urllib.request")
SERVER_MODULE = "repro.service.server"
CODEC_MODULE = "repro.webapp.http1"
#: Calls that cut text at a line end: with a CRLF argument, a head split.
SPLITTERS = {"split", "rsplit", "partition", "rpartition", "find", "rfind", "index"}


def second_wire_codecs(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a module imports a stdlib HTTP parser, a module
    other than the server imports ``http.server`` or defines
    ``parse_request``, or a module other than the codec splits a head: cuts
    text at a CRLF, or opens a line reader on a socket (``.makefile()``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            imported = []
        banned = [m for m in imported for b in STDLIB_WIRE if m == b or m.startswith(b + ".")]
        if name != SERVER_MODULE:
            banned += [m for m in imported if m == "http.server" or m.startswith("http.server.")]
        if banned:
            found.append((node.lineno, f"imports {banned[0]}"))
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "parse_request"
            and name != SERVER_MODULE
        ):
            found.append((node.lineno, "defines parse_request"))
        if name == CODEC_MODULE or not isinstance(node, ast.Call):
            continue
        method = getattr(node.func, "attr", None)
        if method == "makefile":
            found.append((node.lineno, "calls .makefile()"))
        elif method in SPLITTERS and any(
            isinstance(arg, ast.Constant)
            and isinstance(arg.value, (str, bytes))
            and (b"\r\n" if isinstance(arg.value, bytes) else "\r\n") in arg.value
            for arg in node.args
        ):
            found.append((node.lineno, f"calls .{method}() at a CRLF"))
    return found


#: The module whose line numbers must be the ones ``ast`` gives.
PROPAGATION_MODULE = "repro.core.propagation"


def ast_line_breaks(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where the propagation module calls ``.splitlines()``,
    which also breaks at form feeds and other separators ``ast`` does not."""
    if name != PROPAGATION_MODULE:
        return []
    return [
        (node.lineno, "calls .splitlines()")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "splitlines"
    ]


#: The modules that may name ``run_sql``, and the one that spells ``data_version``.
SQL_MODULES = ("repro.query.engine", "repro.relational.sql")
VERSION_MODULE = "repro.relational.database"
DATA_VERSION = re.compile(r"\bdata_version\b", re.IGNORECASE)


def uncached_sql_reads(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a module names ``run_sql`` outside the engine and
    the SQL module, or spells ``data_version`` outside the database module."""
    found = []
    for node in ast.walk(tree):
        for used in set(identifiers(node)):
            if used == "run_sql" and name not in SQL_MODULES:
                found.append((node.lineno, "names run_sql"))
            elif DATA_VERSION.fullmatch(used) and name != VERSION_MODULE:
                found.append((node.lineno, f"names {used}"))
    if name != VERSION_MODULE:
        found.extend(
            (node.lineno, f"spells {match.group(0)!r}")
            for node in code_strings(tree)
            for match in DATA_VERSION.finditer(node.value)
        )
    return found


#: The one module that tells a database file at rest, and its spellings.
REST_MODULE = "repro.relational.database"
REST_SPELLINGS = re.compile(r"-wal\b|\bst_ctime_ns\b")


def stray_rest_checks(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where a string spells a WAL file or the ctime field,
    or a name is the ctime field."""
    found = [
        (node.lineno, f"spells {match.group(0)!r}")
        for node in code_strings(tree)
        for match in REST_SPELLINGS.finditer(node.value)
    ]
    for node in ast.walk(tree):
        found.extend((node.lineno, f"names {used}") for used in identifiers(node) if used == "st_ctime_ns")
    return found


#: The drop-counter seal protocol's names, its bank's counter, and the one
#: package that spells the key table.
DELETED_SEAL_NAMES = {"dropped_rows_total", "forget_unsealed", "_seal_state", "incarnation"}
DELETED_SEAL_STRINGS = {"pool.dropped_rows"}
KEY_TABLE_PACKAGE, KEY_TABLE = "repro.relational", re.compile(r"\bappend_keys\b", re.IGNORECASE)


def second_append_rules(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where the seal protocol's names come back, or the key
    table is spelled outside :mod:`repro.relational`."""
    found = [
        (node.lineno, f"names {used}")
        for node in ast.walk(tree)
        for used in set(identifiers(node)) & DELETED_SEAL_NAMES
    ]
    for node in code_strings(tree):
        if node.value in DELETED_SEAL_STRINGS:
            found.append((node.lineno, f"spells {node.value!r}"))
        elif not in_packages(name, (KEY_TABLE_PACKAGE,)) and KEY_TABLE.search(node.value):
            found.append((node.lineno, "spells the append_keys table"))
    return found


def main(argv: list[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src"
    violations = 0
    for path in sorted(src_root.rglob("*.py")):
        name = module_name(src_root, path)
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for lineno in metrics_none_guards(tree):
            print(
                f"{path}:{lineno}: {name} tests a metrics registry for None — "
                f"components always hold a scope (see repro.obs.metrics)"
            )
            violations += 1
        for lineno, what in second_planner_signs(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — which runs replay and how they "
                f"land is HindsightEngine's decision alone (see repro.core.hindsight)"
            )
            violations += 1
        for lineno, what in second_body_builders(tree) if name in BODY_MODULES else ():
            print(
                f"{path}:{lineno}: {name} {what} outside {BODY_BUILDER} — a read has "
                f"one wire format, whose fragments the pivot cache keeps with the view"
            )
            violations += 1
        for lineno, what in second_record_paths(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — there is one record path: rows and "
                f"checkpoints reach the database through the session's background flusher"
            )
            violations += 1
        for lineno, what in cold_tier_names(tree) if name != LAYOUT_MODULE else ():
            print(
                f"{path}:{lineno}: {name} {what} — blobs have one layout; only "
                f"{LAYOUT_MODULE} reads the archives older releases left"
            )
            violations += 1
        for lineno, what in stray_schema_ddl(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — the physical schema is {SCHEMA_MODULE}'s "
                f"_DDL alone, applied once per edit under its PRAGMA user_version stamp"
            )
            violations += 1
        for lineno, what in stray_wal_upkeep(tree) if name != WAL_MODULE else ():
            print(
                f"{path}:{lineno}: {name} {what} — WAL checkpoints are {WAL_MODULE}'s: "
                f"Database.checkpoint runs them on a second connection, off every commit"
            )
            violations += 1
        for lineno, what in deleted_settings(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — a setting only tests set is a "
                f"constant, and a replay runs serially or in processes"
            )
            violations += 1
        for lineno, what in second_wire_codecs(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — HTTP/1.1 heads are read and split by "
                f"{CODEC_MODULE} only, for {SERVER_MODULE} / repro.fleet.transport"
            )
            violations += 1
        for lineno, what in ast_line_breaks(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — statements are placed by the line "
                f"numbers ast gives; split source with repro.versioning.diff.source_lines"
            )
            violations += 1
        for lineno, what in uncached_sql_reads(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — every read has one freshness rule: SQL "
                f"goes through the query cache, kept fresh by {VERSION_MODULE}'s write_version"
            )
            violations += 1
        for lineno, what in stray_rest_checks(tree) if name != REST_MODULE else ():
            print(
                f"{path}:{lineno}: {name} {what} — whether a closed database file is "
                f"unchanged is {REST_MODULE}.Database.at_rest's call alone"
            )
            violations += 1
        for lineno, what in second_append_rules(name, tree):
            print(
                f"{path}:{lineno}: {name} {what} — a retried append lands once under its "
                f"Idempotency-Key, checked in the rows' transaction against the table "
                f"{KEY_TABLE_PACKAGE} spells"
            )
            violations += 1
        if any(name == p or name.startswith(p + ".") for p in ALLOWED_PREFIXES):
            continue
        for lineno in sqlite_imports(tree):
            print(
                f"{path}:{lineno}: {name} imports sqlite3 directly — "
                f"go through repro.storage.protocols.RelationalStore instead"
            )
            violations += 1
    if violations == 0:
        print("storage seam intact: sqlite3 imports confined to", ", ".join(ALLOWED_PREFIXES))
        print("metrics seam intact: no registry is tested for None")
        print("replay seam intact: one planner, replay_source called by", ", ".join(REPLAY_CALLERS))
        print(f"body seam intact: read bodies built in {BODY_BUILDER} only ({', '.join(BODY_MODULES)})")
        print(
            f"writer seam intact: no second writer, flusher submits from {', '.join(WRITER_MODULES)} "
            f"only, encode_value named in {', '.join(ENCODER_MODULES)} only, "
            f"the obj_store insert spelled in {OBJECT_INSERT_MODULE} once, one thread and "
            f".checkpoint() caller in {WRITER_THREAD_MODULE}.{WRITER_LOOP}"
        )
        print(f"blob seam intact: no archive layout named outside {LAYOUT_MODULE}")
        print(f"schema seam intact: index DDL and the DDL stamp spelled in {SCHEMA_MODULE} only")
        print(f"WAL seam intact: checkpoint pragmas spelled in {WAL_MODULE} only")
        print(f"settings seam intact: no deleted setting is a parameter, no thread pool in {REPLAY_MODULE}")
        print(
            f"wire seam intact: no {' / '.join(STDLIB_WIRE)} import, http.server imported and "
            f"parse_request defined in {SERVER_MODULE} only, heads split in {CODEC_MODULE} only"
        )
        print(f"line seam intact: no .splitlines() in {PROPAGATION_MODULE}")
        print(
            f"SQL seam intact: run_sql named in {', '.join(SQL_MODULES)} only, "
            f"data_version spelled in {VERSION_MODULE} only"
        )
        print(f"rest seam intact: -wal and st_ctime_ns spelled in {REST_MODULE} only")
        print(f"append seam intact: no seal-protocol names, append_keys spelled in {KEY_TABLE_PACKAGE} only")
    return violations


if __name__ == "__main__":
    sys.exit(main(sys.argv))
