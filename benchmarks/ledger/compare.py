"""Summaries of repeated runs, and the one rule that compares two of them.

A results file (``run.py --repeats N --sets K --out FILE``) holds, per set
and workload, one entry per run with its end-to-end metrics.  The rule of
the choosing-metrics guide is applied here and nowhere else:

* a **gain** needs the change to win at least 9/10 of the pairs (ties count
  for neither side) and the medians to differ by more than the parent's own
  inter-quartile distance;
* otherwise a metric whose median got worse by more than its bound has
  **regressed**;
* otherwise, when either side's spread is wider than the bound, it is
  **unresolved** — unless every run of the change reads better than every
  run of the parent;
* otherwise it is **unchanged**.
"""

from __future__ import annotations

import statistics

import catalogue


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = quartiles(values)
    middle = statistics.median(values) if values else 0.0
    return (q3 - q1) / middle if middle else 0.0


def worsening(metric: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if catalogue.better_of(metric) == "lower" else -change


def metric_values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric] for run in runs if metric in run.get("metrics", {})]


def runs_of(results: dict, workload: str) -> list[dict]:
    """Every run of ``workload`` in a results file, set after set."""
    return [run for runs in results["sets"].values() for run in runs.get(workload, [])]


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(metric: str, parent: list[float], change: list[float]) -> dict:
    """Verdict for one end-to-end metric on one workload."""
    bound = catalogue.bound_of(metric)
    lower = catalogue.better_of(metric) == "lower"
    pairs = list(zip(parent, change))
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    losses = sum((c > p) if lower else (c < p) for p, c in pairs)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, _q2, q3 = quartiles(parent)
    worse = worsening(metric, parent_median, change_median)
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if wins >= 0.9 * len(pairs) and abs(change_median - parent_median) > (q3 - q1) and worse < 0:
        verdict = "gain"
    elif worse > bound:
        verdict = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else 0.0,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "parent_iqr": q3 - q1,
        "parent_spread": spread(parent),
        "change_spread": spread(change),
    }


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines for two results files, and whether the change passes."""
    lines = []
    passed = True
    for workload in catalogue.workload_names():
        parent_runs, change_runs = runs_of(parent, workload), runs_of(change, workload)
        if not parent_runs or not change_runs:
            lines.append(f"{workload}: missing from one of the files")
            passed = False
            continue
        lines.append(f"{workload} ({len(parent_runs)} parent runs, {len(change_runs)} change runs)")
        for metric in catalogue.END_TO_END:
            verdict = judge(
                metric.name,
                metric_values(parent_runs, metric.name),
                metric_values(change_runs, metric.name),
            )
            lines.append(
                f"  {metric.name:<22} {verdict['verdict']:<10} "
                f"change/parent = {verdict['ratio']:.4f} "
                f"(base {verdict['parent_median']:.6g} {metric.unit}, bound {metric.bound:.0%}, "
                f"wins {verdict['wins']}/{verdict['pairs']}, "
                f"spread {verdict['parent_spread']:.1%} / {verdict['change_spread']:.1%})"
            )
            passed = passed and verdict["verdict"] != "regressed"
        before, after = failed_share(parent_runs), failed_share(change_runs)
        if after > before:
            lines.append(f"  failed share rose from {before:.4%} to {after:.4%}")
            passed = False
        if not all(run["correct"] for run in change_runs):
            lines.append("  an output check failed in the change's runs")
            passed = False
    return lines, passed


def agreement(results: dict) -> tuple[list[str], list[dict], bool]:
    """Two sets of runs of the same code: do their medians agree?

    Returns report lines, one row per workload x metric, and whether every
    gap stays inside the metric's bound.
    """
    names = sorted(results["sets"])
    lines, rows = [], []
    passed = True
    for workload in catalogue.workload_names():
        lines.append(workload)
        for metric in catalogue.END_TO_END:
            per_set = [
                metric_values(results["sets"][name].get(workload, []), metric.name) for name in names
            ]
            if any(not values for values in per_set):
                continue
            medians = [statistics.median(values) for values in per_set]
            gap = worsening(metric.name, medians[0], medians[-1]) if len(per_set) > 1 else 0.0
            widest = max(spread(values) for values in per_set)
            row = {
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "bound": metric.bound,
                "medians": medians,
                "quartiles": [quartiles(values) for values in per_set],
                "spread": widest,
                "gap": gap,
                "steady": widest <= metric.bound / 3 or metric.name == "setup_s",
                "agrees": abs(gap) <= metric.bound,
            }
            rows.append(row)
            passed = passed and row["agrees"] and (
                metric.name == "setup_s" or widest <= metric.bound
            )
            flags = "" if row["steady"] else "  spread > bound/3"
            if not row["agrees"]:
                flags += "  GAP > bound"
            elif abs(gap) > metric.bound / 2:
                flags += "  gap > bound/2"
            quartile_text = " | ".join(
                f"{q1:.6g} {q2:.6g} {q3:.6g}" for q1, q2, q3 in row["quartiles"]
            )
            lines.append(
                f"  {metric.name:<22} {metric.unit:<8} q1/median/q3: {quartile_text}  "
                f"spread {widest:.2%}  gap {gap:+.2%}  bound {metric.bound:.0%}{flags}"
            )
    return lines, rows, passed
