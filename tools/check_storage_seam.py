#!/usr/bin/env python3
"""Enforce the storage seam (``sqlite3`` stays behind the storage layer), the
metrics seam (no component holds an optional registry), the replay seam
(one planner: only the hindsight engine decides which runs replay), the
body seam (one builder of the service's ``dataframe`` / ``sql`` answer) and
the writer seam (one record path: every handle writes through its session's
background flusher), the blob seam (one blob layout, no cold tier) and the
schema seam (one module spells the physical schema and its DDL stamp).

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
spellings), and ``.flusher.submit(...)`` is called only by
:mod:`repro.core.session` — one writer per database handle, so every write
is counted, tailed and invalidates the query cache.

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


#: The deleted mode's spellings, and the one module that hands rows to a flusher.
MODE_NAMES = {"flush_mode", "sync_flush"}
WRITER_MODULE = "repro.core.session"


def second_record_paths(name: str, tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` where the flush-mode knob or a second submitter reappears."""
    found = []
    for node in ast.walk(tree):
        used = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        if used in MODE_NAMES:
            found.append((node.lineno, f"names {used}"))
        elif (
            name != WRITER_MODULE
            and isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "submit"
        ):
            owner = node.func.value
            if "flusher" in (getattr(owner, "attr", None), getattr(owner, "id", None)):
                found.append((node.lineno, "calls .flusher.submit()"))
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
                f"{path}:{lineno}: {name} {what} — there is one record path: rows reach "
                f"the database through Session.flush / write_records on the background flusher"
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
        print(f"writer seam intact: no flush-mode knob, .flusher.submit() called by {WRITER_MODULE} only")
        print(f"blob seam intact: no archive layout named outside {LAYOUT_MODULE}")
        print(f"schema seam intact: index DDL and the DDL stamp spelled in {SCHEMA_MODULE} only")
    return violations


if __name__ == "__main__":
    sys.exit(main(sys.argv))
