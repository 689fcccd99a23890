"""The one place that spells every workload and metric of the perf ledger.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 benchmarks/ledger/catalogue.py > BENCHMARK.json``) and
``test_ledger.py`` asserts the two agree.  Later issues cite these names
verbatim, so a name, unit, direction or bound changes here or nowhere.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

#: Seconds one run measures.  The issue asks for 30; the driver's cap
#: (4 + 22 x 4 runs, set-up included, inside 3420 s) leaves ~37 s per run,
#: and every run sets up three times, so all four workloads run 20 s — the
#: floor the issue allows.
RUN_SECONDS = 20

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: What is timed or counted, and where the number comes from.
    source: str
    #: The end-to-end metric a change to this layer should move.
    moves: str
    #: The workload(s) on which it should move.
    on: str


WORKLOADS = (
    Workload(
        "ingest_bulk",
        "64 records + 16 loops per POST to one serve process: per-record layers "
        "(JSON decode, record build, queue, flusher, executemany) do their most work per request",
    ),
    Workload(
        "fleet_small",
        "4 records + 1 loop per POST through serve --workers 2: per-request layers and the "
        "router hop dominate, per-record work is 1/16 of ingest_bulk",
    ),
    Workload(
        "read_write_mix",
        "hot and cold dataframe/sql reads beside a 10 req/s writer, 13 tenants over a pool of 8: "
        "reads force flushes and view refreshes, cold tenants miss pool and view cache",
    ),
    Workload(
        "library_hindsight",
        "record -> hindsight backfill -> query through one Session, no HTTP: the bypass workload "
        "for every serving optimisation and the only one that runs core, runtime and versioning",
    ),
)

#: The latency and throughput metrics are read with the host's noise taken
#: out (``harness.quiet_latencies``): every op stands at the quiet-host cost
#: of its kind.  What the client saw before that is per-layer
#: (``client.latency_p50_raw_ms``, ``client.latency_p95_raw_ms``,
#: ``client.throughput_raw_per_s``, ``client.host_noise_share``).
END_TO_END = (
    EndToEnd(
        "throughput_per_s", "units/s", "higher", 0.25,
        "verified units / (measured window x quiet share of the ops' time + client.drain_s); "
        "over the whole window, not a median of sub-windows",
    ),
    EndToEnd(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median over the window's verified ops of the op's quiet-host latency; "
        "failed ops are attempted, not samples",
    ),
    EndToEnd(
        "latency_p95_ms", "ms", "lower", 0.25,
        "nearest-rank 95th percentile of the same samples",
    ),
    EndToEnd(
        "rss_mb", "MB", "lower", 0.10,
        "peak RSS (VmHWM) summed over the program's process tree",
    ),
    EndToEnd(
        "disk_bytes_per_record", "B", "lower", 0.05,
        "bytes under the project root(s) after graceful shutdown / log rows stored",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "spawn -> ready banner -> fixed-work seeding -> fixed-count warm-up; median of three set-ups",
    ),
)

_SOCKET = "ingest_bulk, fleet_small, read_write_mix"
_SPAN = "traced run, self-time / ops: "
_COUNT = "untraced window, delta of the program's own counter: "

PER_LAYER = (
    Layer("service.server.wire_ms", "ms", "lower",
          _SPAN + "client round trip minus the handler's do_GET/do_POST span",
          "latency_p50_ms, throughput_per_s", _SOCKET),
    Layer("service.server.dispatch_self_ms", "ms", "lower",
          _SPAN + "do_GET/do_POST span minus WebApp.handle",
          "latency_p50_ms, throughput_per_s", _SOCKET),
    Layer("webapp.framework.handle_self_ms", "ms", "lower",
          _SPAN + "WebApp.handle", "cpu_ms_per_unit", _SOCKET),
    Layer("webapp.framework.json_decode_ms", "ms", "lower",
          _SPAN + "Request.get_json", "cpu_ms_per_unit", "ingest_bulk"),
    Layer("webapp.framework.json_encode_ms", "ms", "lower",
          _SPAN + "JsonResponse(...)", "cpu_ms_per_unit", "read_write_mix"),
    Layer("service.app.handler_self_ms", "ms", "lower",
          _SPAN + "the route handler Router.resolve returned",
          "latency_p95_ms", "read_write_mix"),
    Layer("service.pool.checkout_ms", "ms", "lower",
          _SPAN + "entering DatabasePool.checkout (lookup, open, evict, shard lock)",
          "latency_p95_ms", "read_write_mix"),
    Layer("service.pool.hits", "count", "higher",
          _COUNT + "pool.hits", "latency_p95_ms", "read_write_mix"),
    Layer("service.pool.misses", "count", "lower",
          _COUNT + "pool.misses", "latency_p95_ms", "read_write_mix"),
    Layer("service.pool.evictions", "count", "lower",
          _COUNT + "pool.evictions", "latency_p95_ms", "read_write_mix"),
    Layer("service.pool.dropped_rows", "count", "lower",
          _COUNT + "pool.dropped_rows + flush.dropped_rows", "throughput_per_s", _SOCKET),
    Layer("relational.records.build_ms", "ms", "lower",
          _SPAN + "LogRecord.create and LoopRecord(...), accumulated per op",
          "cpu_ms_per_unit, throughput_per_s", "ingest_bulk; ~1/9 as much on fleet_small"),
    Layer("service.ingest.append_self_ms", "ms", "lower",
          _SPAN + "IngestionQueue.append",
          "cpu_ms_per_unit, throughput_per_s", "ingest_bulk"),
    Layer("service.ingest.size_flushes", "count", "lower",
          _COUNT + "ingest.size_flushes summed over the written tenants",
          "throughput_per_s", "ingest_bulk"),
    Layer("service.ingest.interval_flushes", "count", "lower",
          _COUNT + "ingest.interval_flushes summed over the written tenants",
          "throughput_per_s", "fleet_small"),
    Layer("service.ingest.explicit_flushes", "count", "lower",
          _COUNT + "ingest.explicit_flushes summed over the written tenants",
          "latency_p50_ms", "read_write_mix"),
    Layer("runtime.flusher.submit_ms", "ms", "lower",
          _SPAN + "BackgroundFlusher.submit", "throughput_per_s", "ingest_bulk"),
    Layer("runtime.flusher.write_ms", "ms", "lower",
          _SPAN + "the flusher thread's write of one coalesced batch",
          "throughput_per_s, disk_bytes_per_record", "ingest_bulk"),
    Layer("runtime.flusher.transactions", "count", "lower",
          _COUNT + "flush.transactions", "throughput_per_s", "ingest_bulk"),
    Layer("runtime.flusher.rows_per_txn", "count", "higher",
          _COUNT + "flush.rows / flush.transactions", "throughput_per_s", "ingest_bulk"),
    Layer("runtime.flusher.flush_ms_p50", "ms", "lower",
          "untraced window: median of the flush.ms histogram (mean over the fleet's workers)",
          "throughput_per_s", "ingest_bulk"),
    Layer("client.drain_s", "s", "lower",
          "untraced window end -> every tenant's flush-forcing count read has returned",
          "throughput_per_s", "ingest_bulk, read_write_mix"),
    Layer("relational.database.txn_ms", "ms", "lower",
          _SPAN + "Database.transaction, enter to commit",
          "throughput_per_s", "ingest_bulk, library_hindsight"),
    Layer("query.engine.dataframe_self_ms", "ms", "lower",
          _SPAN + "QueryEngine.dataframe", "latency_p50_ms", "read_write_mix"),
    Layer("query.cache.dataframe_self_ms", "ms", "lower",
          _SPAN + "PivotViewCache.dataframe", "latency_p50_ms, latency_p95_ms", "read_write_mix"),
    Layer("query.cache.fast_hits", "count", "higher",
          _COUNT + "cache.fast_hits", "latency_p50_ms", "read_write_mix"),
    Layer("query.cache.warm_hits", "count", "higher",
          _COUNT + "cache.warm_hits", "latency_p50_ms", "read_write_mix"),
    Layer("query.cache.incremental_refreshes", "count", "lower",
          _COUNT + "cache.incremental_refreshes", "latency_p50_ms", "read_write_mix"),
    Layer("query.cache.cold_builds", "count", "lower",
          _COUNT + "cache.cold_builds", "latency_p95_ms", "read_write_mix, library_hindsight"),
    Layer("relational.queries.fetch_ms", "ms", "lower",
          _SPAN + "long_format_records", "latency_p95_ms", "read_write_mix, library_hindsight"),
    Layer("core.dataframe_view.pivot_ms", "ms", "lower",
          _SPAN + "pivot_run, compose_group, finalize, build_dataframe",
          "latency_p95_ms", "read_write_mix, library_hindsight"),
    Layer("dataframe.frame.to_records_ms", "ms", "lower",
          _SPAN + "DataFrame.to_records", "latency_p50_ms", "read_write_mix"),
    Layer("fleet.router.handle_self_ms", "ms", "lower",
          _SPAN + "FleetRouter.handle", "latency_p50_ms, cpu_ms_per_unit", "fleet_small"),
    Layer("fleet.supervisor.route_ms", "ms", "lower",
          _SPAN + "FleetSupervisor.route", "latency_p50_ms, cpu_ms_per_unit", "fleet_small"),
    Layer("fleet.transport.hop_ms", "ms", "lower",
          _SPAN + "HttpClient.request minus the worker's do_POST span",
          "latency_p50_ms, cpu_ms_per_unit", "fleet_small"),
    Layer("core.session.log_us", "us", "lower",
          "traced run, mean per call: Session.log", "throughput_per_s", "library_hindsight"),
    Layer("core.session.loop_iter_us", "us", "lower",
          "traced run, mean per iteration: resuming the Session.loop generator",
          "throughput_per_s", "library_hindsight"),
    Layer("core.session.flush_ms", "ms", "lower",
          _SPAN + "Session.flush", "throughput_per_s", "library_hindsight"),
    Layer("core.session.commit_ms", "ms", "lower",
          _SPAN + "Session.commit", "throughput_per_s", "library_hindsight"),
    Layer("versioning.repository.commit_ms", "ms", "lower",
          _SPAN + "Repository.commit", "throughput_per_s, disk_bytes_per_record",
          "library_hindsight"),
    Layer("runtime.checkpoint_writer.submit_ms", "ms", "lower",
          _SPAN + "AsyncCheckpointWriter.submit", "throughput_per_s", "library_hindsight"),
    Layer("core.checkpoint.save_ms", "ms", "lower",
          _SPAN + "CheckpointManager.save", "throughput_per_s, disk_bytes_per_record",
          "library_hindsight"),
    Layer("core.hindsight.backfill_ms_per_version", "ms", "lower",
          "traced run, whole HindsightEngine.backfill span / versions backfilled",
          "latency_p50_ms", "library_hindsight"),
    Layer("core.propagation.propagate_ms", "ms", "lower",
          _SPAN + "propagate_statements", "latency_p50_ms", "library_hindsight"),
    Layer("core.replay.replay_ms", "ms", "lower",
          _SPAN + "replay_source", "latency_p50_ms", "library_hindsight"),
    Layer("core.checkpoint.restore_ms", "ms", "lower",
          _SPAN + "CheckpointManager.restore (0 under the total replay plan used here)",
          "latency_p50_ms", "library_hindsight"),
    Layer("core.session.dataframe_cold_ms", "ms", "lower",
          "traced run, whole Session.dataframe span, first read of a round's names",
          "latency_p50_ms", "library_hindsight"),
    Layer("core.session.dataframe_warm_ms", "ms", "lower",
          "traced run, whole Session.dataframe span, repeat read",
          "latency_p50_ms", "library_hindsight"),
    Layer("cpu_ms_per_unit", "ms", "lower",
          "untraced window: user+sys CPU of the program's process tree (its CPU-time clocks) / units; "
          "an end-to-end metric demoted for its run-to-run spread (README)",
          "-", "all; moves when work is removed while the socket floor pins latency"),
    Layer("client.throughput_raw_per_s", "units/s", "higher",
          "untraced window: verified units / (measured window + client.drain_s), as the clock saw it",
          "-", "all"),
    Layer("client.latency_p50_raw_ms", "ms", "lower",
          "untraced window: median of the op samples as the client saw them", "-", "all"),
    Layer("client.latency_p95_raw_ms", "ms", "lower",
          "untraced window: nearest-rank 95th percentile of the same", "-", "all"),
    Layer("client.host_noise_share", "share", "lower",
          "untraced window: 1 - quiet-host time of the ops / their measured time: what the host's "
          "slow mode and the program's own stalls added", "-", "all"),
    Layer("client.latency_p99_ms", "ms", "lower",
          "untraced window: nearest-rank 99th percentile of the op samples", "-", "all"),
    Layer("client.write_p50_ms", "ms", "lower",
          "untraced window: median append latency (open-loop appends are timed from their due time)",
          "-", "all socket workloads"),
    Layer("client.sched_lag_p95_ms", "ms", "lower",
          "untraced window: how late the generator sent (open loop: send - due; closed loop: "
          "send - previous response)", "-", "all"),
    Layer("client.cpu_share", "share", "lower",
          "untraced window: harness CPU / (harness CPU + program CPU)", "-", "all"),
    Layer("trace.overhead_share", "share", "lower",
          "(traced - untraced) / untraced latency_p50_ms, same invocation", "-", "all"),
    Layer("trace.attributed_share", "share", "higher",
          "traced run: self-time of catalogued spans / duration of the ops' root spans", "-", "all"),
)


def benchmark_json() -> dict:
    """The exact content of the repository's ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def workload_names() -> list[str]:
    return [w.name for w in WORKLOADS]


def bound_of(metric: str) -> float | None:
    for m in END_TO_END:
        if m.name == metric:
            return m.bound
    return None


def better_of(metric: str) -> str:
    for m in (*END_TO_END, *PER_LAYER):
        if m.name == metric:
            return m.better
    raise KeyError(metric)


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
