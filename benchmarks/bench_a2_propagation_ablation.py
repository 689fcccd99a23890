"""A2 — Ablation: AST-anchored propagation vs. naive line-number propagation.

docs/architecture.md's propagation design anchors injected statements to
matched source lines.  The strawman alternative inserts at the same absolute
line number.
This ablation evolves a script through increasingly invasive refactorings and
measures, for each strategy, how often the injected statement lands in the
correct position (immediately after the anchor statement, inside the loop
body) and how often the patched file still parses.
Expected shape: anchored propagation stays correct as refactorings grow;
line-number propagation degrades.
"""

from __future__ import annotations

import ast

from conftest import report

from repro.core.propagation import propagate_by_line_number, propagate_statements
from repro.workloads import VersionedScriptWorkload

VERSIONS = 8


def _is_correctly_placed(source: str) -> bool:
    """The new 'weight' log must sit directly after the 'loss' log at equal depth."""
    lines = source.splitlines()
    weight = [i for i, line in enumerate(lines) if '"weight"' in line]
    loss = [i for i, line in enumerate(lines) if '"loss"' in line]
    if not weight or not loss:
        return False
    w, l = weight[0], loss[0]
    same_indent = (len(lines[w]) - len(lines[w].lstrip())) == (len(lines[l]) - len(lines[l].lstrip()))
    return w == l + 1 and same_indent


def test_propagation_strategy_ablation(benchmark, make_session):
    workload = VersionedScriptWorkload(versions=VERSIONS, epochs=2, steps=2, refactor=True)
    new_source = workload.hindsight_source()
    old_sources = [workload.source_for_version(v) for v in range(VERSIONS)]

    def run_both():
        anchored, baseline = [], []
        for old in old_sources:
            anchored.append(propagate_statements(old, new_source))
            baseline.append(propagate_by_line_number(old, new_source))
        return anchored, baseline

    anchored_results, baseline_results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def score(results):
        parses = correct = 0
        for result in results:
            try:
                ast.parse(result.patched_source)
                parses += 1
            except SyntaxError:
                continue
            if _is_correctly_placed(result.patched_source):
                correct += 1
        return parses, correct

    anchored_parses, anchored_correct = score(anchored_results)
    baseline_parses, baseline_correct = score(baseline_results)

    report(
        "A2: propagation strategy ablation over refactored versions",
        [
            {
                "strategy": "AST-anchored (ours)",
                "versions": VERSIONS,
                "parses": anchored_parses,
                "correctly_placed": anchored_correct,
            },
            {
                "strategy": "absolute line number (baseline)",
                "versions": VERSIONS,
                "parses": baseline_parses,
                "correctly_placed": baseline_correct,
            },
        ],
    )
    # Shape: the anchored strategy places every statement correctly; the
    # baseline loses placements as the refactorings shift line numbers
    # (version 0 is unshifted, so it gets at least that one right).
    assert anchored_correct == VERSIONS
    assert baseline_correct < VERSIONS
