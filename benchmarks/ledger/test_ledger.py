"""The ledger's own checks: names agree, arithmetic is right, checks bite.

Collected by the tier-1 run (``test_*.py`` under ``benchmarks/``), so it
stays under 5 s and asserts no timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def test_benchmark_json_is_generated_from_the_catalogue():
    on_disk = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalogue.benchmark_json()


def test_names_units_and_bounds_are_well_formed():
    names = [w.name for w in catalogue.WORKLOADS]
    names += [m.name for m in catalogue.END_TO_END] + [m.name for m in catalogue.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(catalogue.NAME_RE.match(name) for name in names)
    for metric in (*catalogue.END_TO_END, *catalogue.PER_LAYER):
        assert catalogue.UNIT_RE.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for metric in catalogue.END_TO_END:
        assert 0 < metric.bound <= 0.25, metric
    setup = next(m for m in catalogue.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in catalogue.END_TO_END)
    assert all("\n" not in w.why and len(w.why) <= 200 for w in catalogue.WORKLOADS)
    assert len(json.dumps(catalogue.benchmark_json())) < 64 * 1024


def test_every_span_metric_is_in_the_catalogue():
    layer_names = {m.name for m in catalogue.PER_LAYER}
    assert set(tracing.SELF_TIME_METRIC.values()) <= layer_names
    assert set(tracing.PER_CALL_METRIC.values()) <= layer_names
    produced = harness.span_metrics([], [], 1)
    assert set(produced) <= layer_names
    span_names = {target[2] for target in tracing.TARGETS}
    reported = set(tracing.SELF_TIME_METRIC) | set(tracing.PER_CALL_METRIC) | set(tracing.ATTRIBUTED_ONLY)
    assert span_names <= reported


def test_self_time_arithmetic_on_a_synthetic_trace():
    # (id, parent, op, name, start, end, calls): a 100 ns op whose handler
    # (80) holds a decode (10), a 3-call aggregate (15) and a checkout (5),
    # plus a flusher-thread write (40 with a 30 transaction) outside any op.
    spans = [
        (1, None, 1, tracing.ROOT_WIRE, 0, 100, 1),
        (2, 1, 1, "service.server.dispatch", 10, 90, 1),
        (3, 2, 1, "webapp.framework.json_decode", 12, 22, 1),
        (4, 2, 1, "relational.records.build", 10, 25, 3),
        (5, 2, 1, "service.pool.checkout", 30, 35, 1),
        (6, None, None, "runtime.flusher.write", 200, 240, 1),
        (7, 6, None, "relational.database.txn", 205, 235, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 20, 2: 50, 3: 10, 4: 15, 5: 5, 6: 10, 7: 30}
    totals = tracing.totals_by_name(spans)
    assert totals["relational.records.build"] == {"calls": 3, "self_ns": 15, "ns": 15}
    assert totals["service.server.dispatch"] == {"calls": 1, "self_ns": 50, "ns": 80}
    # Everything inside the op is catalogued; the flusher thread is outside it.
    assert tracing.attributed_share(spans) == 1.0
    spans.append((8, 2, 1, "harness.unnamed", 40, 60, 1))
    assert tracing.attributed_share(spans) == 0.8
    metrics = harness.span_metrics(spans, [], ops=1)
    assert metrics["service.server.wire_ms"] == 20 / 1e6
    assert metrics["runtime.flusher.write_ms"] == 10 / 1e6


def test_quiet_latencies_stand_each_op_at_its_kinds_cost():
    # 40 reads of a 10-row frame at 1.0 per row, half of them slowed 1.6x by
    # the host and one fluke; a second kind with too few samples to rank.
    kinds = ["hot"] * 41 + ["cold"]
    sizes = [10.0] * 41 + [1.0]
    latencies = [10.0, 16.0] * 20 + [0.5, 50.0]
    quiet = harness.quiet_latencies(kinds, sizes, latencies)
    # 2 % of 41 is under two, so the second smallest per row: past the fluke,
    # inside the fast mode.
    assert quiet == [10.0] * 41 + [50.0]
    assert harness.quiet_latencies(["hot", "hot"], [10.0, 20.0], [12.0, 22.0]) == [12.0, 24.0]
    assert harness.quiet_latencies([], [], []) == []


def test_tracer_records_parents_and_accumulates_calls():
    tracer = tracing.Tracer()
    inner = tracer.spanned(lambda: None, "inner")
    counted = tracer.accumulated(lambda: inner(), "counted")
    with tracer.root("root") as root:
        for _ in range(3):
            counted()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    assert len(by_name["inner"]) == 3 and all(s[1] == root.id for s in by_name["inner"])
    (aggregate,) = by_name["counted"]
    assert aggregate[1] == root.id and aggregate[6] == 3
    own = tracing.self_times(tracer.spans)
    assert all(value >= 0 for value in own.values())
    assert sum(own.values()) == by_name["root"][0][5] - by_name["root"][0][4]


def test_output_checks_fail_on_a_corrupted_reference():
    inputs = wl.IngestInputs(wl.INGEST_BULK, seed=7, tenants=["t"])
    expected = inputs.expected_rows("t", [0, 1])
    rows = [
        {"value_name": name, "ctx_id": ctx, "value": repr(value)}
        for (name, ctx), value in expected.items()
    ]
    assert harness.compare_values(rows, expected) is None
    corrupted = dict(expected)
    corrupted[next(iter(corrupted))] += 1.0
    assert "1 of" in harness.compare_values(rows, corrupted)
    assert harness.compare_values(rows[1:], expected) is not None

    mix = wl.MixInputs(wl.READ_WRITE_MIX, seed=7, seconds=1.0)
    reference = mix.reference_frame(list(range(mix.appends)))
    assert harness.compare_frames(list(reference), reference) is None
    broken = list(reference)
    broken[5] = (*broken[5][:-1], broken[5][-1] + 1.0)
    assert harness.compare_frames(broken, reference) is not None
    assert harness.compare_frames(reference[:-1], reference) is not None

    spec = wl.LIBRARY_HINDSIGHT
    rows = [list(row) for row in wl.library_reference(spec, 7, versions=3, round_index=0)]
    final = {"versions": 3, "round": 0, "rows": rows}
    assert harness.check_library_frame(spec, 7, final) == []
    assert harness.check_library_frame(spec, 8, final)  # another seed's closed form
    assert harness.check_library_frame(spec, 7, None)


def test_comparison_rule():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    past_bound = 1.0 + catalogue.bound_of("latency_p50_ms") + 0.05

    def verdict(metric, factor):
        return compare.judge(metric, parent, [v * factor for v in parent])["verdict"]

    assert verdict("latency_p50_ms", 0.8) == "gain"
    assert verdict("latency_p50_ms", past_bound) == "regressed"
    assert verdict("latency_p50_ms", 1.01) == "unchanged"
    # Higher is better: the same numbers read the other way round.
    assert verdict("throughput_per_s", 1.3) == "gain"
    assert verdict("throughput_per_s", 2.0 - past_bound) == "regressed"
    # Wins in 8 of 10 pairs are not a gain, whatever the medians say.
    mostly = [v * 0.8 for v in parent[:8]] + [v * 1.1 for v in parent[8:]]
    assert compare.judge("latency_p50_ms", parent, mostly)["verdict"] != "gain"
    noisy = [100.0, 160.0, 60.0, 130.0, 75.0, 150.0, 65.0, 120.0, 85.0, 100.0]
    assert compare.judge("latency_p50_ms", noisy, list(reversed(noisy)))["verdict"] == "unresolved"


def test_smoke_pass_runs_every_workload_with_checks_on():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for name in catalogue.workload_names():
        assert f"{name}: " in completed.stdout
    assert "failed=0 correct=True" in completed.stdout
    assert "PROBLEM" not in completed.stdout
