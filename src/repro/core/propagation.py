"""Cross-version propagation of logging statements.

The paper's "magic trick": a developer adds ``flor.log`` statements to the
*latest* version of a script, and FlorDB injects those statements into the
correct locations of every *prior* version before replaying them.  The paper
cites GumTree-style source differencing [6]; this module implements a
line-anchor variant of that idea:

1. The new and old sources are aligned with the Myers diff
   (:func:`repro.versioning.diff.matching_lines`).
2. Logging statements that exist only in the new source are located.
3. Each such statement is anchored to the nearest matched line above it (or
   below it if it opens the file); the matched partner of the anchor in the
   old source determines the injection point, and indentation is re-based on
   the anchor so the statement lands inside the same block.
4. The patched old source must still parse; statements whose injection would
   break the parse are dropped and reported, never silently mangled.

A deliberately naive alternative (inject at the same absolute line number) is
provided for the A2 ablation benchmark.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from ..errors import PropagationError
from ..versioning.diff import matching_lines

#: Default predicate: which call attributes count as "logging statements".
_FLOR_CALL_NAMES = {"log", "arg", "commit"}


def _indentation(line: str) -> str:
    return line[: len(line) - len(line.lstrip())]


@dataclass(frozen=True)
class FlorStatement:
    """A logging statement found in source code."""

    lineno: int          # 1-based first line
    end_lineno: int      # 1-based last line (inclusive)
    text: str            # full statement text (may span lines), without trailing newline
    call_name: str       # e.g. "log"
    logged_name: str | None  # first literal string argument, if any

    @property
    def line_count(self) -> int:
        return self.end_lineno - self.lineno + 1


def find_flor_statements(
    source: str,
    call_names: set[str] | None = None,
    module_alias: str = "flor",
) -> list[FlorStatement]:
    """Find top-level-or-nested statements whose value is a ``flor.*`` call.

    Only *expression statements* and simple assignments whose right-hand side
    is a direct ``flor.<name>(...)`` call are considered — these are the
    forms hindsight logging adds post hoc.

    A pure function of the source text, answered once per distinct text: a
    backfill asks about its one new source once per version, and a version
    still inside the next backfill's window is not parsed again.
    """
    return list(_flor_statements(source, frozenset(call_names or _FLOR_CALL_NAMES), module_alias))


@lru_cache(maxsize=128)
def _flor_statements(
    source: str, call_names: frozenset[str], module_alias: str
) -> tuple[FlorStatement, ...]:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise PropagationError(f"cannot parse source: {exc}") from exc
    lines = source.splitlines()
    found: list[FlorStatement] = []

    def call_of(node: ast.AST) -> ast.Call | None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            return node.value
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            return node.value
        return None

    for node in ast.walk(tree):
        call = call_of(node)
        if call is None:
            continue
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == module_alias
            and func.attr in call_names
        ):
            continue
        logged_name = None
        if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str):
            logged_name = call.args[0].value
        lineno = node.lineno
        end_lineno = getattr(node, "end_lineno", node.lineno)
        text = "\n".join(lines[lineno - 1:end_lineno])
        found.append(
            FlorStatement(
                lineno=lineno,
                end_lineno=end_lineno,
                text=text,
                call_name=func.attr,
                logged_name=logged_name,
            )
        )
    found.sort(key=lambda s: s.lineno)
    return tuple(found)


@dataclass
class PropagationResult:
    """Outcome of propagating statements from a new source to an old source."""

    patched_source: str
    injected: list[FlorStatement] = field(default_factory=list)
    skipped: list[FlorStatement] = field(default_factory=list)
    already_present: list[FlorStatement] = field(default_factory=list)
    #: ``(statement, anchor_line)`` per injected statement: the 1-based line
    #: of the *old* source after which the statement was inserted (0 = top of
    #: file).  Dry-run reporting prints these so a developer can audit the
    #: patch plan without executing any replay.
    placements: list[tuple[FlorStatement, int]] = field(default_factory=list)

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    @property
    def changed(self) -> bool:
        return bool(self.injected)


def propagate_statements(
    old_source: str,
    new_source: str,
    module_alias: str = "flor",
    statement_filter: Callable[[FlorStatement], bool] | None = None,
) -> PropagationResult:
    """Inject new-version logging statements into an old version of the source.

    Returns a :class:`PropagationResult` whose ``patched_source`` is the old
    source with the new logging statements inserted at anchored positions.
    The patched source is guaranteed to parse; statements that cannot be
    placed safely are reported in ``skipped``.
    """
    new_statements = find_flor_statements(new_source, module_alias=module_alias)
    if statement_filter is not None:
        new_statements = [s for s in new_statements if statement_filter(s)]
    old_lines = old_source.splitlines()
    new_lines = new_source.splitlines()
    old_text_set = {line.strip() for line in old_lines}
    old_logged_names = _logged_name_keys(old_source, module_alias)

    pairs = matching_lines(old_lines, new_lines)
    old_for_new = {j: i for i, j in pairs}
    matched_new = set(old_for_new)

    # Statements whose every line already matches the old version are present.
    to_inject: list[FlorStatement] = []
    already: list[FlorStatement] = []
    for statement in new_statements:
        statement_lines = range(statement.lineno - 1, statement.end_lineno)
        if all(idx in matched_new for idx in statement_lines):
            already.append(statement)
        elif all(new_lines[idx].strip() in old_text_set for idx in statement_lines):
            # Identical text exists in the old version even if the alignment
            # paired it differently; treat as present to stay idempotent.
            already.append(statement)
        elif (statement.call_name, statement.logged_name) in old_logged_names:
            # The old version already logs this name (possibly with different
            # arguments, e.g. a changed default): hindsight logging only
            # back-propagates *new* names, never edits to existing statements.
            already.append(statement)
        else:
            to_inject.append(statement)

    # Plan insertions as (statement, old_insertion_index, indented_lines).
    insertions: list[tuple[FlorStatement, int, list[str]]] = []
    skipped: list[FlorStatement] = []
    for statement in to_inject:
        plan = _plan_insertion(statement, old_lines, new_lines, old_for_new)
        if plan is None:
            skipped.append(statement)
        else:
            index, text_lines = plan
            insertions.append((statement, index, text_lines))

    patched_lines = list(old_lines)
    # Apply bottom-up so earlier insertion indices stay valid.
    for _stmt, index, text_lines in sorted(insertions, key=lambda item: item[1], reverse=True):
        patched_lines[index:index] = text_lines
    patched_source = "\n".join(patched_lines)
    if old_source.endswith("\n") and not patched_source.endswith("\n"):
        patched_source += "\n"

    injected = [s for s in to_inject if s not in skipped]
    placements = [(stmt, index) for stmt, index, _lines in insertions]
    try:
        ast.parse(patched_source)
    except SyntaxError:
        # A combination of insertions broke the parse: fall back to inserting
        # statements one at a time, dropping the ones that break it.
        patched_source, injected, newly_skipped, placements = _insert_incrementally(
            old_source, to_inject, old_lines, new_lines, old_for_new
        )
        skipped = skipped + newly_skipped
    return PropagationResult(
        patched_source=patched_source,
        injected=injected,
        skipped=skipped,
        already_present=already,
        placements=placements,
    )


def _plan_insertion(
    statement: FlorStatement,
    old_lines: Sequence[str],
    new_lines: Sequence[str],
    old_for_new: dict[int, int],
) -> tuple[int, list[str]] | None:
    """Compute where (old line index) and how (re-indented text) to insert."""
    stmt_start = statement.lineno - 1
    stmt_indent = _indentation(new_lines[stmt_start]) if stmt_start < len(new_lines) else ""

    # Preferred anchor: nearest matched line above the statement.
    anchor_new = None
    for idx in range(stmt_start - 1, -1, -1):
        if idx in old_for_new and new_lines[idx].strip():
            anchor_new = idx
            break
    if anchor_new is not None:
        anchor_old = old_for_new[anchor_new]
        insert_at = anchor_old + 1
        # Skip past continuation lines of a multi-line anchor statement.
        insert_at = _advance_past_block_opener(old_lines, anchor_old, insert_at)
        indent = _rebase_indent(stmt_indent, _indentation(new_lines[anchor_new]), _indentation(old_lines[anchor_old]))
        return insert_at, _indent_statement(statement, indent)

    # Fallback anchor: nearest matched line below (statement opens the file).
    for idx in range(statement.end_lineno, len(new_lines)):
        if idx in old_for_new and new_lines[idx].strip():
            anchor_old = old_for_new[idx]
            indent = _rebase_indent(stmt_indent, _indentation(new_lines[idx]), _indentation(old_lines[anchor_old]))
            return anchor_old, _indent_statement(statement, indent)
    return None


def _advance_past_block_opener(old_lines: Sequence[str], anchor_old: int, insert_at: int) -> int:
    """If the anchor opens a block (ends with ``:``), keep the insertion inside it.

    Inserting directly after ``for x in flor.loop(...):`` must go *inside*
    the block, which the indentation re-basing already handles; nothing to
    skip in that case.  If the anchor line ends with an explicit line
    continuation or an unclosed bracket, advance past the continuation lines.
    """
    line = old_lines[anchor_old]
    open_brackets = line.count("(") - line.count(")")
    idx = insert_at
    while open_brackets > 0 and idx < len(old_lines):
        open_brackets += old_lines[idx].count("(") - old_lines[idx].count(")")
        idx += 1
    return idx


def _rebase_indent(stmt_indent: str, anchor_new_indent: str, anchor_old_indent: str) -> str:
    """Map the statement's indentation from new-file space to old-file space."""
    delta = len(stmt_indent) - len(anchor_new_indent)
    if delta <= 0:
        # Statement is at or above the anchor's level: keep relative offset.
        target = max(0, len(anchor_old_indent) + delta)
    else:
        target = len(anchor_old_indent) + delta
    return " " * target


def _indent_statement(statement: FlorStatement, indent: str) -> list[str]:
    base_indent = _indentation(statement.text.splitlines()[0])
    out = []
    for line in statement.text.splitlines():
        stripped = line[len(base_indent):] if line.startswith(base_indent) else line.lstrip()
        out.append(indent + stripped)
    return out


def _insert_incrementally(
    old_source: str,
    statements: list[FlorStatement],
    old_lines: Sequence[str],
    new_lines: Sequence[str],
    old_for_new: dict[int, int],
) -> tuple[str, list[FlorStatement], list[FlorStatement], list[tuple[FlorStatement, int]]]:
    """Insert statements one at a time, dropping any that break the parse."""
    current = old_source
    injected: list[FlorStatement] = []
    skipped: list[FlorStatement] = []
    placements: list[tuple[FlorStatement, int]] = []
    for statement in statements:
        current_lines = current.splitlines()
        plan = _plan_insertion(statement, current_lines, new_lines, old_for_new)
        if plan is None:
            skipped.append(statement)
            continue
        index, text_lines = plan
        candidate_lines = list(current_lines)
        candidate_lines[index:index] = text_lines
        candidate = "\n".join(candidate_lines)
        try:
            ast.parse(candidate)
        except SyntaxError:
            skipped.append(statement)
            continue
        current = candidate
        injected.append(statement)
        # Report the anchor in *original* old-source coordinates (the
        # dry-run contract): ``index`` points into the progressively
        # patched text, shifted by every earlier insertion's height.
        original_plan = _plan_insertion(statement, old_lines, new_lines, old_for_new)
        placements.append((statement, original_plan[0] if original_plan else index))
    return current, injected, skipped, placements


def _logged_name_keys(source: str, module_alias: str) -> set[tuple[str, str | None]]:
    """``(call_name, logged_name)`` pairs already present in ``source``."""
    keys = set()
    for statement in find_flor_statements(source, module_alias=module_alias):
        if statement.logged_name is not None:
            keys.add((statement.call_name, statement.logged_name))
    return keys


def propagate_by_line_number(old_source: str, new_source: str, module_alias: str = "flor") -> PropagationResult:
    """Naive baseline: inject each new statement at the same absolute line number.

    This is the strawman the A2 ablation compares against — it works when the
    old and new versions are line-aligned and falls apart under refactorings.
    """
    statements = find_flor_statements(new_source, module_alias=module_alias)
    old_lines = old_source.splitlines()
    old_text = {line.strip() for line in old_lines}
    old_logged_names = _logged_name_keys(old_source, module_alias)
    injected: list[FlorStatement] = []
    skipped: list[FlorStatement] = []
    already: list[FlorStatement] = []
    placements: list[tuple[FlorStatement, int]] = []
    patched = list(old_lines)
    offset = 0
    for statement in statements:
        if statement.text.strip() in old_text or (
            statement.call_name, statement.logged_name
        ) in old_logged_names:
            already.append(statement)
            continue
        index = min(statement.lineno - 1 + offset, len(patched))
        candidate = list(patched)
        candidate[index:index] = statement.text.splitlines()
        try:
            ast.parse("\n".join(candidate))
        except SyntaxError:
            skipped.append(statement)
            continue
        patched = candidate
        offset += statement.line_count
        injected.append(statement)
        placements.append((statement, index))
    return PropagationResult(
        patched_source="\n".join(patched),
        injected=injected,
        skipped=skipped,
        already_present=already,
        placements=placements,
    )
