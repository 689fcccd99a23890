"""Cross-version propagation of logging statements.

The paper's "magic trick": a developer adds ``flor.log`` statements to the
*latest* version of a script, and FlorDB injects those statements into the
correct locations of every *prior* version before replaying them.  The paper
cites GumTree-style source differencing [6]; this module matches statements:

1. Each source text is indexed once (one ``ast.parse``, one walk over its
   statement lists).  On the Myers line alignment (``matching_lines``) they
   match by first line, then compounds by where most descendants' partners
   sit, then leftover simple statements by kind and target or call head.
2. A logging statement only the new source has goes after the partner of its
   nearest matched preceding sibling, else first in its block's partner; with
   neither, or beside a statement sharing its line, it is skipped and reported.
3. The patched old source must still compile; statements whose injection
   would break it are dropped and reported, never silently mangled.  The
   compiled patch rides on the result for a replay in this process.

A deliberately naive alternative (inject at the same absolute line number) is
provided for the A2 ablation benchmark.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from types import CodeType
from typing import NamedTuple, Sequence

from ..errors import PropagationError
from ..versioning.diff import matching_lines

#: Which ``flor.<attr>`` calls count as "logging statements".  A replay binds
#: the facade as ``flor``, so that is the only module name looked for.
_FLOR_CALL_NAMES = frozenset({"log", "arg", "commit"})


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


def find_flor_statements(source: str) -> list[FlorStatement]:
    """Find top-level-or-nested statements whose value is a ``flor.*`` call.

    Only *expression statements* and simple assignments whose right-hand side
    is a direct ``flor.<name>(...)`` call count: the forms hindsight logging adds."""
    return [statement.flor for statement in _index(source).statements if statement.flor]


class _Statement(NamedTuple):
    """An indexed statement; statements are numbered in document order."""

    kind: type                 # the ast node class
    lineno: int                # first line (the ``def`` line of a decorated def)
    end_lineno: int
    col: int                   # ast ``col_offset``
    top: int                   # first line, decorators included
    indent: str                # leading whitespace of line ``lineno``
    head: object               # a simple statement's target text or call head
    block: tuple[int, object]  # (owner, slot): owner -1 is the module
    size: int                  # numbers ``k`` to ``k + size - 1`` are its subtree
    flor: FlorStatement | None


class _Index(NamedTuple):
    """The statements of one source text."""

    statements: list[_Statement]
    blocks: dict[tuple[int, object], list[int]]  # statement numbers per block
    at: dict[tuple[int, int], int]               # (lineno, col) -> number


@lru_cache(maxsize=128)
def _index(source: str) -> _Index:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise PropagationError(f"cannot parse source: {exc}") from exc
    lines = source.splitlines()
    index = _Index([], {}, {})

    def walk(body: list[ast.stmt], block: tuple[int, object]) -> None:
        members = index.blocks[block] = []
        for node in body:
            k = len(index.statements)
            members.append(k)
            index.statements.append(None)
            index.at[node.lineno, node.col_offset] = k
            for slot in ("body", "handlers", "orelse", "finalbody", "cases"):  # source order
                children = getattr(node, slot, None) or []
                if slot in ("handlers", "cases"):
                    for i, part in enumerate(children):
                        walk(part.body, (k, (slot, i)))
                elif children:
                    walk(children, (k, slot))
            index.statements[k] = _Statement(
                type(node), node.lineno, node.end_lineno, node.col_offset,
                min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]),
                _indentation(lines[node.lineno - 1]), _head(node, lines), block,
                len(index.statements) - k, _flor_statement(node, lines),
            )

    walk(tree.body, (-1, "body"))
    return index


def _flor_statement(node: ast.stmt, lines: Sequence[str]) -> FlorStatement | None:
    value = getattr(node, "value", None)
    func = getattr(value, "func", None)
    if not (isinstance(node, (ast.Expr, ast.Assign)) and isinstance(value, ast.Call)
            and isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id == "flor" and func.attr in _FLOR_CALL_NAMES):
        return None
    first = value.args[0] if value.args else None
    name = first.value if isinstance(first, ast.Constant) and isinstance(first.value, str) else None
    text = "\n".join(lines[node.lineno - 1:node.end_lineno])
    return FlorStatement(node.lineno, node.end_lineno, text, func.attr, name)


def _head(node: ast.stmt, lines: Sequence[str]) -> object:
    """What an edited simple statement keeps: its target, or its call's
    function and first literal argument (``flor.log("loss", ...)``)."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return tuple(_segment(lines, t) for t in getattr(node, "targets", None) or [node.target])
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        args = node.value.args
        first = args[0].value if args and isinstance(args[0], ast.Constant) else None
        return _segment(lines, node.value.func), first
    return None


def _segment(lines: Sequence[str], node: ast.AST) -> str:
    """The source text of ``node`` (ast columns count UTF-8 bytes)."""
    text = "\n".join(lines[node.lineno - 1:node.end_lineno]).encode()
    end = len(text) - len(lines[node.end_lineno - 1].encode()) + node.end_col_offset
    return text[node.col_offset:end].decode()


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
    #: ``patched_source`` compiled (None if no injection survived a failed compile).
    code: CodeType | None = field(default=None, repr=False, compare=False)

    @property
    def landing(self) -> frozenset[str] | None:
        """The names a replay of the patch can land: the literal names of the
        injected ``flor.log`` statements — or None, the whole recorded run,
        when one of them names its value with an expression."""
        names = [s.logged_name for s in self.injected if s.call_name == "log"]
        return None if None in names else frozenset(names)

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    @property
    def changed(self) -> bool:
        return bool(self.injected)


def propagate_statements(
    old_source: str, new_source: str, filename: str = "<patched>"
) -> PropagationResult:
    """Inject new-version logging statements into an old version of the source.

    Returns a :class:`PropagationResult` whose ``patched_source`` is the old
    source with the new logging statements inserted beside the statements
    they follow, and whose ``code`` is that source compiled under ``filename``.
    Injections that would keep it from compiling are reported in ``skipped``.
    """
    old, new = _index(old_source), _index(new_source)
    old_lines, new_lines = old_source.splitlines(), new_source.splitlines()
    old_text_set = {line.strip() for line in old_lines}
    old_logged_names = _logged_name_keys(old_source)
    old_for_new = {j: i for i, j in matching_lines(old_lines, new_lines)}

    # Statements whose every line already matches the old version are present.
    to_inject: list[tuple[FlorStatement, int]] = []
    already: list[FlorStatement] = []
    for k, statement in ((k, s.flor) for k, s in enumerate(new.statements) if s.flor):
        statement_lines = range(statement.lineno - 1, statement.end_lineno)
        if all(idx in old_for_new for idx in statement_lines):
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
            to_inject.append((statement, k))

    # Plan every insertion once: (statement, old line it follows, its lines).
    partner = _match(old, new, old_for_new) if to_inject else {}
    insertions: list[tuple[FlorStatement, int, list[str]]] = []
    skipped: list[FlorStatement] = []
    for statement, k in to_inject:
        place = _placement(k, old, new, partner)
        if place is None:
            skipped.append(statement)
        else:
            insertions.append((statement, *place))

    patched_source = _patch(old_source, old_lines, insertions)
    try:
        code = compile(patched_source, filename, "exec")
    except SyntaxError:
        # An insertion breaks the compile, or the old source never compiled:
        # keep each planned insertion only if the patch still compiles with it.
        kept, patched_source, code = [], old_source, None
        for insertion in insertions:
            candidate = _patch(old_source, old_lines, kept + [insertion])
            try:
                code, patched_source = compile(candidate, filename, "exec"), candidate
                kept.append(insertion)
            except SyntaxError:
                skipped.append(insertion[0])
        insertions = kept
    return PropagationResult(
        patched_source=patched_source,
        injected=[statement for statement, _at, _lines in insertions],
        skipped=skipped,
        already_present=already,
        placements=[(statement, at) for statement, at, _lines in insertions],
        code=code,
    )


def _match(old: _Index, new: _Index, old_for_new: dict[int, int]) -> dict[int, int]:
    """New statement number -> its partner's number in the old source; the
    modules (-1) are partners once any statement is."""
    partner: dict[int, int] = {}
    used: set[int] = set()

    def pair(k: int, o: int | None) -> bool:
        if o is None or o in used or old.statements[o].kind is not new.statements[k].kind:
            return False
        partner[k] = o
        used.add(o)
        return True

    # 1. Top-down: Myers pairs its first line (a compound's header) with an old one's.
    for k, statement in enumerate(new.statements):
        pair(k, old.at.get((old_for_new.get(statement.lineno - 1, -1) + 1, statement.col)))

    # 2. Bottom-up: a compound statement takes the old one of its kind that
    #    holds most of its matched descendants' partners.
    for k in range(len(new.statements) - 1, -1, -1):
        statement = new.statements[k]
        if statement.size == 1 or k in partner:
            continue
        inside = [partner[d] for d in range(k + 1, k + statement.size) if d in partner]
        votes: Counter[int] = Counter()
        for a in inside:  # a vote for the innermost candidate holding it
            while (a := old.statements[a].block[0]) != -1:
                if a not in used and old.statements[a].kind is statement.kind:
                    votes[a] += 1
                    break
        if votes and 2 * votes.most_common(1)[0][1] > len(inside):
            pair(k, votes.most_common(1)[0][0])
    if partner:
        partner[-1] = -1

    # 3. A leftover simple one takes the next unmatched old sibling with its head.
    for (owner, slot), members in new.blocks.items():
        block = (partner.get(owner), slot)
        siblings, cursor = old.blocks.get(block, []), 0
        for k in members:
            if k not in partner and new.statements[k].size == 1:
                for o in siblings[cursor:]:
                    if old.statements[o].head == new.statements[k].head and pair(k, o):
                        break
            if k in partner and old.statements[partner[k]].block == block:
                cursor = siblings.index(partner[k]) + 1
    return partner


def _placement(
    k: int, old: _Index, new: _Index, partner: dict[int, int]
) -> tuple[int, list[str]] | None:
    """``(old line it follows, its indented lines)`` for new statement ``k``, or None."""
    owner, slot = new.statements[k].block
    block = (partner.get(owner), slot)
    if block not in old.blocks:
        return None
    members = new.blocks[owner, slot]
    before = [partner[s] for s in members[: members.index(k)] if s in partner]
    before = [o for o in before if old.statements[o].block == block]
    o = before[-1] if before else old.blocks[block][0]
    neighbour, after = old.statements[o], o + old.statements[o].size
    if len(neighbour.indent) != neighbour.col or (
        after < len(old.statements) and old.statements[after].lineno <= neighbour.end_lineno
    ):
        return None  # another statement shares the neighbour's first or last line
    text = new.statements[k].flor.text.splitlines()
    base = _indentation(text[0])
    lines = [line[len(base):] if line.startswith(base) else line.lstrip() for line in text]
    lines = [neighbour.indent + line for line in lines]
    return (neighbour.end_lineno if before else neighbour.top - 1), lines


def _patch(old_source: str, old_lines: Sequence[str], insertions: list) -> str:
    patched_lines = list(old_lines)
    # Bottom-up so earlier indices stay valid; insertions after one line keep their order.
    for _statement, at, text_lines in sorted(insertions, key=lambda item: item[1])[::-1]:
        patched_lines[at:at] = text_lines
    patched_source = "\n".join(patched_lines)
    if old_source.endswith("\n") and not patched_source.endswith("\n"):
        patched_source += "\n"
    return patched_source


def _logged_name_keys(source: str) -> set[tuple[str, str | None]]:
    """``(call_name, logged_name)`` pairs already present in ``source``."""
    statements = find_flor_statements(source)
    return {(s.call_name, s.logged_name) for s in statements if s.logged_name is not None}


def propagate_by_line_number(old_source: str, new_source: str) -> PropagationResult:
    """Naive baseline: inject each new statement at the same absolute line number.

    This is the strawman the A2 ablation compares against — it works when the
    old and new versions are line-aligned and falls apart under refactorings.
    """
    statements = find_flor_statements(new_source)
    old_lines = old_source.splitlines()
    old_text = {line.strip() for line in old_lines}
    old_logged_names = _logged_name_keys(old_source)
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
