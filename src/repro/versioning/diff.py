"""Line-oriented diffing: a from-scratch Myers O(ND) diff.

The version store uses this for two purposes:

* rendering human-readable unified diffs between file versions, and
* powering cross-version log-statement propagation, which needs to know
  which lines of an old version survived into the new one (the alignment
  :mod:`repro.core.propagation` matches statements on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DiffOp:
    """A single diff operation over line ranges.

    ``tag`` is one of ``equal``, ``delete``, ``insert`` or ``replace``;
    ranges follow Python slice conventions (half-open) on the old (``a``)
    and new (``b``) sequences.
    """

    tag: str
    a_start: int
    a_end: int
    b_start: int
    b_end: int


def _myers_backtrack(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int]]:
    """Return the list of matched index pairs ``(i, j)`` on a shortest edit script.

    Classic Myers greedy algorithm with trace recording; O((N+M)·D) time and
    O(D^2) space, which is ample for source files.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    max_d = n + m
    # v[k] = furthest x on diagonal k (offset by max_d for indexing)
    v = [0] * (2 * max_d + 1)
    trace: list[list[int]] = []
    found = False
    for d in range(max_d + 1):
        trace.append(list(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[max_d + k - 1] < v[max_d + k + 1]):
                x = v[max_d + k + 1]
            else:
                x = v[max_d + k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[max_d + k] = x
            if x >= n and y >= m:
                found = True
                break
        if found:
            break
    # Backtrack through the trace to recover matched pairs.
    matches: list[tuple[int, int]] = []
    x, y = n, m
    for d in range(len(trace) - 1, 0, -1):
        prev_v = trace[d]
        k = x - y
        if k == -d or (k != d and prev_v[max_d + k - 1] < prev_v[max_d + k + 1]):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = prev_v[max_d + prev_k]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            matches.append((x, y))
        x, y = prev_x, prev_y
    # The d == 0 snake (common prefix) was never backtracked through.
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        matches.append((x, y))
    matches.reverse()
    return matches


def matching_lines(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int]]:
    """Pairs of line indices ``(i, j)`` with ``a[i] == b[j]`` on an optimal alignment."""
    pairs = _myers_backtrack(list(a), list(b))
    return [(i, j) for i, j in pairs if a[i] == b[j]]


def diff_lines(a: Sequence[str], b: Sequence[str]) -> list[DiffOp]:
    """Diff two line sequences into a minimal list of :class:`DiffOp` blocks."""
    a = list(a)
    b = list(b)
    matches = matching_lines(a, b)
    ops: list[DiffOp] = []
    ai = bi = 0

    def emit_gap(a_to: int, b_to: int) -> None:
        nonlocal ai, bi
        if ai < a_to and bi < b_to:
            ops.append(DiffOp("replace", ai, a_to, bi, b_to))
        elif ai < a_to:
            ops.append(DiffOp("delete", ai, a_to, bi, b_to))
        elif bi < b_to:
            ops.append(DiffOp("insert", ai, a_to, bi, b_to))
        ai, bi = a_to, b_to

    idx = 0
    while idx < len(matches):
        mi, mj = matches[idx]
        emit_gap(mi, mj)
        # Extend the equal run as far as it goes.
        run = idx
        while (
            run + 1 < len(matches)
            and matches[run + 1][0] == matches[run][0] + 1
            and matches[run + 1][1] == matches[run][1] + 1
        ):
            run += 1
        equal_a_end = matches[run][0] + 1
        equal_b_end = matches[run][1] + 1
        ops.append(DiffOp("equal", ai, equal_a_end, bi, equal_b_end))
        ai, bi = equal_a_end, equal_b_end
        idx = run + 1
    emit_gap(len(a), len(b))
    return ops


def diff_stats(a: Sequence[str], b: Sequence[str]) -> dict[str, int]:
    """Summary counts: lines added, deleted and unchanged."""
    added = deleted = unchanged = 0
    for op in diff_lines(a, b):
        if op.tag == "equal":
            unchanged += op.a_end - op.a_start
        else:
            deleted += op.a_end - op.a_start
            added += op.b_end - op.b_start
    return {"added": added, "deleted": deleted, "unchanged": unchanged}


def unified_diff(
    a: Sequence[str],
    b: Sequence[str],
    a_label: str = "a",
    b_label: str = "b",
    context: int = 3,
) -> str:
    """Render a unified diff (``---/+++/@@`` format) between two line lists."""
    ops = diff_lines(a, b)
    if all(op.tag == "equal" for op in ops):
        return ""
    lines = [f"--- {a_label}", f"+++ {b_label}"]
    # Group ops into hunks separated by long equal stretches.
    hunks: list[list[DiffOp]] = []
    current: list[DiffOp] = []
    for op in ops:
        if op.tag == "equal" and (op.a_end - op.a_start) > 2 * context and current:
            current.append(DiffOp("equal", op.a_start, op.a_start + context, op.b_start, op.b_start + context))
            hunks.append(current)
            current = [DiffOp("equal", op.a_end - context, op.a_end, op.b_end - context, op.b_end)]
        else:
            current.append(op)
    if current and any(op.tag != "equal" for op in current):
        hunks.append(current)
    for hunk in hunks:
        if not any(op.tag != "equal" for op in hunk):
            continue
        a_start = hunk[0].a_start
        b_start = hunk[0].b_start
        a_len = hunk[-1].a_end - a_start
        b_len = hunk[-1].b_end - b_start
        lines.append(f"@@ -{a_start + 1},{a_len} +{b_start + 1},{b_len} @@")
        for op in hunk:
            if op.tag == "equal":
                lines.extend(" " + a[i] for i in range(op.a_start, op.a_end))
            else:
                lines.extend("-" + a[i] for i in range(op.a_start, op.a_end))
                lines.extend("+" + b[j] for j in range(op.b_start, op.b_end))
    return "\n".join(lines)


class Patch:
    """A reified diff that can rebuild the new text from the old text."""

    def __init__(self, a: Sequence[str], b: Sequence[str]):
        self.ops = diff_lines(a, b)
        self._b = list(b)

    def apply(self, a: Sequence[str]) -> list[str]:
        """Apply this patch to ``a`` (which must equal the original old side)."""
        out: list[str] = []
        for op in self.ops:
            if op.tag == "equal":
                out.extend(a[op.a_start:op.a_end])
            elif op.tag in ("insert", "replace"):
                out.extend(self._b[op.b_start:op.b_end])
            # deletes contribute nothing
        return out
