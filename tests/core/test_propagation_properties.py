"""Property-based tests for cross-version statement propagation.

The invariants that must hold no matter how the old version was refactored:

* the patched source always parses,
* propagation never duplicates a statement that already logs the same name,
* propagation is idempotent (patching a patched source changes nothing),
* the number of flor statements only ever grows by the number injected,
* each injected statement has one placement, a line of the old source, and
  ``weight`` lands right after ``loss`` even when the old version spells
  the ``loss`` line differently,
* :func:`find_flor_statements` finds what a walk over every node finds,
* a line that holds a character ``str.splitlines`` breaks at, or a CRLF
  source, moves no placement, and the patched source keeps the character.
"""

from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.propagation import FlorStatement, find_flor_statements, propagate_statements
from repro.versioning.diff import source_lines

_NEW_SOURCE = """
lr = flor.arg("lr", 0.01)
state = {"w": 0.0}
with flor.checkpointing(state=state):
    for epoch in flor.loop("epoch", range(4)):
        state["w"] += lr
        flor.log("loss", 1.0 / (1.0 + state["w"]))
        flor.log("weight", state["w"])
""".strip()


@st.composite
def refactored_old_source(draw) -> str:
    """An 'older version': same loop, randomly shifted and decorated."""
    top_comments = draw(st.integers(min_value=0, max_value=6))
    helper = draw(st.booleans())
    trailing = draw(st.booleans())
    lr_default = draw(st.sampled_from(["0.01", "0.05", "0.1"]))
    loss_numerator = draw(st.sampled_from(["1.0", "2.0"]))  # edits the line above the slot
    epochs = draw(st.integers(min_value=2, max_value=6))
    parts = [f"# note {i}" for i in range(top_comments)]
    if helper:
        parts += ["def helper(x):", "    return x * 2", ""]
    parts += [
        f'lr = flor.arg("lr", {lr_default})',
        'state = {"w": 0.0}',
        "with flor.checkpointing(state=state):",
        f'    for epoch in flor.loop("epoch", range({epochs})):',
        '        state["w"] += lr',
        f'        flor.log("loss", {loss_numerator} / (1.0 + state["w"]))',
    ]
    if trailing:
        parts += ["", 'flor.log("done", True)']
    return "\n".join(parts)


@settings(max_examples=60, deadline=None)
@given(refactored_old_source())
def test_property_patched_source_parses_and_gains_only_new_names(old_source):
    result = propagate_statements(old_source, _NEW_SOURCE)
    ast.parse(result.patched_source)

    old_names = {(s.call_name, s.logged_name) for s in find_flor_statements(old_source)}
    patched_names = [
        (s.call_name, s.logged_name) for s in find_flor_statements(result.patched_source)
    ]
    # Nothing that existed before is duplicated.
    for key in old_names:
        assert patched_names.count(key) == 1
    # The new 'weight' statement is present exactly once.
    assert patched_names.count(("log", "weight")) == 1


@settings(max_examples=60, deadline=None)
@given(refactored_old_source())
def test_property_propagation_is_idempotent(old_source):
    once = propagate_statements(old_source, _NEW_SOURCE)
    twice = propagate_statements(once.patched_source, _NEW_SOURCE)
    assert twice.injected_count == 0
    assert twice.patched_source == once.patched_source


@settings(max_examples=60, deadline=None)
@given(refactored_old_source())
def test_property_each_injection_has_one_placement_in_the_old_source(old_source):
    result = propagate_statements(old_source, _NEW_SOURCE)
    assert [statement for statement, _line in result.placements] == result.injected
    line_count = len(old_source.splitlines())
    assert all(0 <= line <= line_count for _statement, line in result.placements)
    lines = result.patched_source.splitlines()
    weight = next(i for i, line in enumerate(lines) if '"weight"' in line)
    assert '"loss"' in lines[weight - 1]
    assert lines[weight].startswith(" " * 8 + "flor.log")


def _walk_reference(source: str) -> list[FlorStatement]:
    """Every ``flor.*`` expression or assignment statement, by ``ast.walk``."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.Expr, ast.Assign)) and isinstance(node.value, ast.Call)):
            continue
        func, args = node.value.func, node.value.args
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "flor" and func.attr in {"log", "arg", "commit"}):
            continue
        named = args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str)
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        found.append(FlorStatement(
            node.lineno, node.end_lineno, text, func.attr, args[0].value if named else None
        ))
    return sorted(found, key=lambda s: s.lineno)


_EVERY_BLOCK = """
x = flor.arg("x", 1)
try:
    flor.log("try", x)
except ValueError as exc:
    flor.log("except", str(exc))
else:
    y = flor.log("else", 2)
finally:
    flor.log("finally", 3)
match x:
    case 1:
        flor.log("case", 1); flor.log(f"case_{x}", x)
    case _:
        while x:
            x -= 1
        else:
            flor.log("while_else", x)
class Model:
    def fit(self):
        with open("f") as f:
            if f:
                flor.log("fit", flor.commit())
            elif x:
                flor.log(
                    "elif",
                    x,
                )
other.log("not_flor", 1)
""".strip()


def test_find_flor_statements_matches_a_walk_over_every_node():
    assert find_flor_statements(_EVERY_BLOCK) == _walk_reference(_EVERY_BLOCK)
    assert len(find_flor_statements(_EVERY_BLOCK)) == 10


@settings(max_examples=30, deadline=None)
@given(refactored_old_source())
def test_property_find_flor_statements_matches_a_walk_over_every_node(old_source):
    patched = propagate_statements(old_source, _NEW_SOURCE).patched_source
    for source in (old_source, patched, _NEW_SOURCE):
        assert find_flor_statements(source) == _walk_reference(source)


#: Characters ``str.splitlines`` ends a line at and ``ast`` does not.  Only a
#: form feed may stand on a line of its own; the others parse only inside a
#: comment or a string literal.
_SEPARATORS = ["\x0c", "\x1c", "\x85", "\u2028"]
_FORMS = {"bare": "{c}", "comment": "# tuned{c}twice", "string": 'note = "a{c}b"'}


@pytest.mark.parametrize("char", _SEPARATORS[1:])
def test_only_a_form_feed_parses_on_a_line_of_its_own(char):
    with pytest.raises(SyntaxError):
        ast.parse(f"x = 1\n{char}\ny = 2\n")


@st.composite
def line_break_edits(draw) -> tuple[str, str | None]:
    """An older version with a separator line inserted, or made CRLF, or both;
    returns it and the inserted character."""
    lines = draw(refactored_old_source()).split("\n")
    char = draw(st.sampled_from([None, *_SEPARATORS]))
    crlf = draw(st.booleans()) if char else True
    if char:
        form = draw(st.sampled_from(sorted(_FORMS) if char == "\x0c" else ["comment", "string"]))
        at = draw(st.integers(0, len(lines)))
        # Indented as the next statement, so an inserted one joins its block.
        statement = next((line for line in lines[at:] if line.strip()), "")
        indent = statement[: len(statement) - len(statement.lstrip())]
        lines.insert(at, (indent if form == "string" else "") + _FORMS[form].format(c=char))
    return ("\r\n" if crlf else "\n").join(lines), char


@settings(max_examples=60, deadline=None, derandomize=True)
@given(line_break_edits())
def test_property_line_breaks_move_no_placement(edit):
    old_source, char = edit
    ast.parse(old_source)
    result = propagate_statements(old_source, _NEW_SOURCE)
    assert result.injected_count == 1 and not result.skipped
    lines = source_lines(result.patched_source)
    weight = next(i for i, line in enumerate(lines) if '"weight"' in line)
    assert '"loss"' in lines[weight - 1]
    if char:
        assert result.patched_source.count(char) == old_source.count(char) == 1
