"""Tests for cross-version log-statement propagation."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.core.propagation import (
    find_flor_statements,
    propagate_by_line_number,
    propagate_statements,
)
from repro.errors import PropagationError

OLD_SOURCE = textwrap.dedent(
    """
    lr = flor.arg("lr", 0.01)
    state = {"w": 0.0}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range(5)):
            state["w"] += lr
            flor.log("loss", 1.0 / (1.0 + state["w"]))
    """
).strip()

NEW_SOURCE = textwrap.dedent(
    """
    lr = flor.arg("lr", 0.01)
    state = {"w": 0.0}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range(5)):
            state["w"] += lr
            flor.log("loss", 1.0 / (1.0 + state["w"]))
            flor.log("weight", state["w"])
    """
).strip()

REFACTORED_OLD = textwrap.dedent(
    """
    # An earlier revision: different hyperparameters, extra helper, shifted lines.
    def helper(value):
        return value * 2

    lr = flor.arg("lr", 0.05)
    state = {"w": 0.0}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range(3)):
            state["w"] += lr
            flor.log("loss", 1.0 / (1.0 + state["w"]))
    """
).strip()


class TestFindFlorStatements:
    def test_finds_log_and_arg_calls(self):
        statements = find_flor_statements(NEW_SOURCE)
        names = [(s.call_name, s.logged_name) for s in statements]
        assert ("arg", "lr") in names
        assert ("log", "loss") in names
        assert ("log", "weight") in names

    def test_assignment_form_is_detected(self):
        statements = find_flor_statements("x = flor.log('acc', value)\n")
        assert statements[0].logged_name == "acc"

    def test_non_flor_calls_ignored(self):
        statements = find_flor_statements("print('hi')\nother.log('x', 1)\n")
        assert statements == []

    def test_multiline_statement_captured_fully(self):
        source = "flor.log(\n    'acc',\n    compute(),\n)\n"
        statement = find_flor_statements(source)[0]
        assert statement.line_count == 4
        assert "compute()" in statement.text

    def test_syntax_error_raises(self):
        with pytest.raises(PropagationError):
            find_flor_statements("def broken(:\n")


class TestPropagation:
    def test_injects_new_statement_into_identical_old_version(self):
        result = propagate_statements(OLD_SOURCE, NEW_SOURCE)
        assert result.injected_count == 1
        assert 'flor.log("weight", state["w"])' in result.patched_source
        ast.parse(result.patched_source)

    def test_injection_lands_inside_the_loop_body(self):
        result = propagate_statements(OLD_SOURCE, NEW_SOURCE)
        lines = result.patched_source.splitlines()
        weight_line = next(line for line in lines if "weight" in line)
        loss_line = next(line for line in lines if '"loss"' in line)
        assert len(weight_line) - len(weight_line.lstrip()) == len(loss_line) - len(loss_line.lstrip())
        assert lines.index(weight_line) == lines.index(loss_line) + 1

    def test_statements_already_present_are_not_duplicated(self):
        result = propagate_statements(NEW_SOURCE, NEW_SOURCE)
        assert result.injected_count == 0
        assert len(result.already_present) >= 3
        assert result.patched_source == NEW_SOURCE

    def test_propagation_is_idempotent(self):
        first = propagate_statements(OLD_SOURCE, NEW_SOURCE)
        second = propagate_statements(first.patched_source, NEW_SOURCE)
        assert second.injected_count == 0
        assert second.patched_source.count('"weight"') == 1

    def test_propagation_survives_refactored_old_version(self):
        result = propagate_statements(REFACTORED_OLD, NEW_SOURCE)
        assert result.injected_count == 1
        patched = result.patched_source
        ast.parse(patched)
        lines = patched.splitlines()
        weight_idx = next(i for i, line in enumerate(lines) if "weight" in line)
        loss_idx = next(i for i, line in enumerate(lines) if '"loss"' in line)
        assert weight_idx == loss_idx + 1  # still right after the loss log, inside the loop

    def test_the_patch_comes_compiled(self):
        result = propagate_statements(OLD_SOURCE, NEW_SOURCE, filename="train.py")
        assert result.code.co_filename == "train.py"
        assert result.code == compile(result.patched_source, "train.py", "exec")
        assert "code" not in repr(result)
        assert result == propagate_statements(OLD_SOURCE, NEW_SOURCE, filename="other.py")

    def test_landing_is_the_literal_names_of_the_injected_logs(self):
        assert propagate_statements(OLD_SOURCE, NEW_SOURCE).landing == {"weight"}
        assert propagate_statements(NEW_SOURCE, NEW_SOURCE).landing == frozenset()
        computed = NEW_SOURCE.replace('flor.log("weight"', 'flor.log(f"weight_{lr}"')
        assert propagate_statements(OLD_SOURCE, computed).landing is None

    def test_a_source_the_parser_accepts_but_the_compiler_rejects_injects_nothing(self):
        """A module-level ``return`` parses but does not compile: no injection
        can fix that, so every statement is reported dropped and there is no
        code object — the replay of that version fails on its own."""
        broken = OLD_SOURCE.rstrip("\n") + "\nreturn\n"
        ast.parse(broken)
        result = propagate_statements(broken, NEW_SOURCE)
        assert result.injected_count == 0 and len(result.skipped) == 1
        assert result.code is None and result.patched_source == broken

    def test_patched_source_always_parses(self):
        # Old version with a very different structure.
        old = "for epoch in flor.loop('epoch', range(2)):\n    pass\n"
        result = propagate_statements(old, NEW_SOURCE)
        ast.parse(result.patched_source)

    def test_result_flags(self):
        result = propagate_statements(OLD_SOURCE, NEW_SOURCE)
        assert result.changed
        unchanged = propagate_statements(NEW_SOURCE, NEW_SOURCE)
        assert not unchanged.changed


class TestLineNumberBaseline:
    def test_baseline_works_when_versions_are_line_aligned(self):
        result = propagate_by_line_number(OLD_SOURCE, NEW_SOURCE)
        assert result.injected_count == 1
        ast.parse(result.patched_source)

    def test_baseline_misplaces_under_refactoring(self):
        """The ablation's point: absolute line numbers break when code shifts."""
        anchored = propagate_statements(REFACTORED_OLD, NEW_SOURCE)
        baseline = propagate_by_line_number(REFACTORED_OLD, NEW_SOURCE)

        def weight_is_adjacent_to_loss(source: str) -> bool:
            lines = source.splitlines()
            weight = [i for i, line in enumerate(lines) if "weight" in line]
            loss = [i for i, line in enumerate(lines) if '"loss"' in line]
            return bool(weight) and bool(loss) and abs(weight[0] - loss[0]) == 1

        assert weight_is_adjacent_to_loss(anchored.patched_source)
        assert not weight_is_adjacent_to_loss(baseline.patched_source)


class TestDroppedStatementReporting:
    """The propagation plan must *report* statements it cannot place safely —
    never silently mangle the patched source (the `--dry-run` contract)."""

    def test_unanchorable_statement_is_reported_as_skipped(self):
        # Nothing in the new source matches the old source, so the new
        # statement has no anchor above or below it.
        old = 'x = 1\ny = 2'
        new = 'flor.log("a", 1)'
        result = propagate_statements(old, new)
        assert result.injected == []
        assert len(result.skipped) == 1
        assert result.skipped[0].logged_name == "a"
        assert result.patched_source == old  # untouched
        ast.parse(result.patched_source)

    def test_parse_breaking_insertion_is_dropped_and_reported(self):
        # The statement's only anchor is *below* it at a deeper context: the
        # planned insertion produces an indented line at the top of the old
        # file, which cannot parse, so the incremental fallback drops it.
        old = "x = 1\ny = 2"
        new = 'if x:\n    flor.log("a", 1)\nx = 1\ny = 2'
        result = propagate_statements(old, new)
        assert result.injected == []
        assert [s.logged_name for s in result.skipped] == ["a"]
        assert result.placements == []
        assert result.patched_source.strip() == old
        ast.parse(result.patched_source)

    def test_mixed_outcome_reports_each_bucket_once(self):
        old = OLD_SOURCE
        new = NEW_SOURCE + '\nif False:\n    flor.log("ghost", 1)'
        # "weight" injects cleanly; "ghost" only anchors under an `if` that
        # does not exist in the old version.
        result = propagate_statements(old, new)
        injected_names = {s.logged_name for s in result.injected}
        skipped_names = {s.logged_name for s in result.skipped}
        assert "weight" in injected_names
        assert result.placements and result.placements[0][0].logged_name == "weight"
        assert injected_names.isdisjoint(skipped_names)
        ast.parse(result.patched_source)

    def test_baseline_reports_parse_breaking_absolute_positions(self):
        old = "x = 1\ny = 2"
        new = 'if x:\n    flor.log("a", 1)\nx = 1\ny = 2'
        result = propagate_by_line_number(old, new)
        assert [s.logged_name for s in result.skipped] == ["a"]
        assert result.patched_source == old
        ast.parse(result.patched_source)

    def test_placements_anchor_injected_statements_to_old_lines(self):
        result = propagate_statements(OLD_SOURCE, NEW_SOURCE)
        assert result.injected_count == 1
        assert len(result.placements) == 1
        statement, index = result.placements[0]
        assert statement.logged_name == "weight"
        # Inserted right after the loss line of the old source.
        loss_line = OLD_SOURCE.splitlines().index(
            '        flor.log("loss", 1.0 / (1.0 + state["w"]))'
        )
        assert index == loss_line + 1


class TestStructuralAnchoring:
    """S lands after the statement it follows in the new source, even when an
    older version spells that statement differently."""

    def test_s_follows_an_edited_update(self):
        old = 'for step in range(3):\n    state["w"] += lr * 2\n    flor.log("loss", state["w"])\n'
        new = old.replace("lr * 2", "lr / (1 + step)").replace(
            '    flor.log("loss"', '    flor.log("hs", state["w"])\n    flor.log("loss"'
        )
        result = propagate_statements(old, new)
        assert result.patched_source.splitlines() == [
            "for step in range(3):",
            '    state["w"] += lr * 2',
            '    flor.log("hs", state["w"])',
            '    flor.log("loss", state["w"])',
        ]
        assert [line for _s, line in result.placements] == [2]

    def test_s_follows_an_edited_first_statement_of_a_loop(self):
        old = "for i in range(3):\n    y = i * 2\n    total = y\n"
        new = 'for i in range(3):\n    y = i * 3\n    flor.log("y", y)\n    total = y\n'
        result = propagate_statements(old, new)
        assert result.patched_source == (
            'for i in range(3):\n    y = i * 2\n    flor.log("y", y)\n    total = y\n'
        )

    def test_s_follows_the_closing_line_of_an_edited_multiline_literal(self):
        old = "sizes = [64,\n         32]\nmodel = build(sizes)\n"
        new = 'sizes = [64,\n         16]\nflor.log("sizes", sizes)\nmodel = build(sizes)\n'
        result = propagate_statements(old, new)
        assert [s.logged_name for s in result.injected] == ["sizes"]
        assert result.patched_source == (
            'sizes = [64,\n         32]\nflor.log("sizes", sizes)\nmodel = build(sizes)\n'
        )

    def test_s_takes_its_neighbours_indentation_tabs_included(self):
        old = "for i in range(2):\n\tx = i\n"
        new = 'for i in range(2):\n\tx = i + 1\n\tflor.log("x", x)\n'
        result = propagate_statements(old, new)
        assert result.patched_source == 'for i in range(2):\n\tx = i\n\tflor.log("x", x)\n'

    def test_s_with_no_matched_predecessor_goes_first_in_its_block(self):
        old = "@decorate\ndef f(x):\n    return x\n"
        new = 'flor.log("start", 1)\n@decorate\ndef f(x):\n    return x\n'
        result = propagate_statements(old, new)
        assert result.patched_source.startswith('flor.log("start", 1)\n@decorate\n')
        assert [line for _s, line in result.placements] == [0]

    def test_statements_planned_after_one_line_keep_their_order(self):
        new = NEW_SOURCE + '\n        flor.log("w2", state["w"] ** 2)'
        result = propagate_statements(OLD_SOURCE, new)
        lines = result.patched_source.splitlines()
        assert lines[-2:] == [
            '        flor.log("weight", state["w"])',
            '        flor.log("w2", state["w"] ** 2)',
        ]
        assert [line for _s, line in result.placements] == [6, 6]

    def test_a_neighbour_that_shares_its_line_is_skipped_and_reported(self):
        old = "a = 1; b = 2\nc = 3\n"
        new = 'a = 1; b = 2\nflor.log("b", b)\nc = 3\n'
        result = propagate_statements(old, new)
        assert [s.logged_name for s in result.skipped] == ["b"]
        assert result.injected == [] and result.patched_source == old


class TestLineBreaks:
    """Lines are numbered the way ``ast`` numbers them: only ``\\n``, ``\\r\\n``
    and ``\\r`` end one.  ``str.splitlines`` also breaks at a form feed, so
    every statement after one was read a line early."""

    NEW = 'x = 1\n\x0c\nfor i in range(2):\n    y = i\n    flor.log("y", y)\n'

    def test_a_statement_after_a_form_feed_is_found_on_its_line(self):
        (statement,) = find_flor_statements(self.NEW)
        assert (statement.lineno, statement.text) == (5, '    flor.log("y", y)')

    def test_a_statement_after_a_form_feed_is_injected_and_the_form_feed_kept(self):
        old = "x = 1\n\x0c\nfor i in range(2):\n    y = i\n"
        result = propagate_statements(old, self.NEW)
        assert result.injected_count == 1
        assert result.patched_source == self.NEW

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_sources_line_up_with_ast(self, newline):
        new = self.NEW.replace("\n", newline)
        (statement,) = find_flor_statements(new)
        assert statement.lineno == 5 and statement.text == '    flor.log("y", y)'
        old = "x = 1\n\x0c\nfor i in range(2):\n    y = i\n".replace("\n", newline)
        assert propagate_statements(old, new).injected_count == 1
