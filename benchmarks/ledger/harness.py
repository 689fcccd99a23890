"""Run one workload: set up, measure a window, drain, check, report.

One harness process drives the program with two client threads, one
keep-alive connection each.  :func:`measure` is the untraced run whose
numbers become the end-to-end metrics (program in child processes, CPU and
memory read from /proc); :func:`trace` repeats the workload with the server
on a thread of this process and the tracer's wrappers installed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import procs
import tracer as tracing
import workloads as wl
from client import Client, ClientError

WORK_DIR = procs.HERE / ".work"

#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3

_ROWS_TAIL = re.compile(rb'"rows": (\d+)\}\s*$')


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


#: Share of a kind's repetitions that define its quiet-host cost.
QUIET_SHARE = 0.02


def quiet_latencies(kinds: list[str], sizes: list[float], latencies: list[float]) -> list[float]:
    """Each op's latency with the host's noise taken out.

    This machine's vCPUs switch between a fast and a ~1.6x slower mode every
    few hundred milliseconds, and the share of a window spent in the slow
    mode drifts from run to run, so a mean or a median of CPU-bound ops
    moves 20 % between runs of the same code while the fast mode itself
    repeats within a few percent (README, "The host and the quiet-host
    reading").  Ops of one *kind*
    do the same work per unit of *size*; a kind's cost per unit is the
    ``QUIET_SHARE`` quantile of its repetitions (at least the second
    smallest, so that one fluke cannot set it), and every op stands at its
    kind's cost times its own size.
    """
    per_unit: dict[str, list[float]] = {}
    for kind, size, latency in zip(kinds, sizes, latencies):
        per_unit.setdefault(kind, []).append(latency / size)
    cost = {}
    for kind, values in per_unit.items():
        values.sort()
        rank = max(2, math.ceil(QUIET_SHARE * len(values)))
        cost[kind] = values[min(rank, len(values)) - 1]
    return [cost[kind] * size for kind, size in zip(kinds, sizes)]


@dataclass
class Window:
    """What the client threads saw during one measured window."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: One entry per verified op: what it did, how much of it, how long it took.
    kinds: list[str] = field(default_factory=list)
    sizes: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    harness_cpu_s: float = 0.0
    program_cpu_s: float = 0.0


@dataclass
class Outcome:
    """Everything one run learned; the CLI picks the metrics it prints."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# Client threads
# ---------------------------------------------------------------------------


class LoadThread(threading.Thread):
    #: Whether this thread's requests are the workload's op (its latencies
    #: are the samples, its spans the per-layer numbers).
    sampled = True

    def __init__(self, address: tuple[str, int], tracer: tracing.Tracer | None):
        super().__init__(daemon=True)
        self.client = Client(*address)
        self.tracer = tracer
        self.barrier: threading.Barrier | None = None
        self.deadline = 0.0
        self.attempted = 0
        self.failed = 0
        self.kinds: list[str] = []
        self.sizes: list[float] = []
        self.latencies: list[float] = []
        self.write_latencies: list[float] = []
        self.lags: list[float] = []
        self.problems: list[str] = []
        self.span_ids: list[int] = []
        self.finished = 0.0

    def send(self, method: str, path: str, body: bytes | None = None) -> bytes | None:
        """One round trip; the body on 2xx, ``None`` on any failure."""
        self.attempted += 1
        try:
            if self.tracer is None:
                status, data = self.client.request(method, path, body)
            else:
                with self.tracer.root(tracing.ROOT_WIRE) as span:
                    self.span_ids.append(span.id)
                    status, data = self.client.request(
                        method, path, body, {tracing.OP_HEADER: str(span.id)}
                    )
        except ClientError as exc:
            self.fail(str(exc))
            return None
        if not 200 <= status < 300:
            self.fail(f"{method} {path}: status {status}: {data[:120]!r}")
            return None
        return data

    def sample(self, kind: str, latency: float, size: float = 1.0) -> None:
        """A verified op: ``size`` units of ``kind``'s work took ``latency``."""
        self.kinds.append(kind)
        self.sizes.append(size)
        self.latencies.append(latency)

    def fail(self, reason: str) -> None:
        """Count the op just sent as failed (transport, status or output check)."""
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(reason)

    def run(self) -> None:
        try:
            # A connection's first exchange is acknowledged at once and slips
            # under the socket floor every later one pays; spend it here.
            for _ in range(2):
                self.client.request("GET", "/healthz")
        except ClientError as exc:
            self.problems.append(f"connection warm-up: {exc}")
        self.barrier.wait()
        try:
            self.loop()
        finally:
            self.finished = time.perf_counter()
            self.client.close()

    def loop(self) -> None:
        raise NotImplementedError


class IngestThread(LoadThread):
    """Closed loop over this thread's tenants, one POST at a time."""

    def __init__(self, address, tracer, inputs: wl.IngestInputs, tenants: list[str]):
        super().__init__(address, tracer)
        self.inputs = inputs
        self.tenants = tenants
        self.acked = dict.fromkeys(tenants, 0)
        #: tenant -> (cycle, bodies of it acknowledged so far), newest cycle only
        self.last_cycle: dict[str, tuple[int, list[int]]] = {t: (0, []) for t in tenants}

    def loop(self) -> None:
        spec = self.inputs.spec
        position = {tenant: (1, 0) for tenant in self.tenants}  # cycle 0 was the warm-up
        previous_end = time.perf_counter()
        turn = 0
        while time.perf_counter() < self.deadline:
            tenant = self.tenants[turn % len(self.tenants)]
            turn += 1
            cycle, k = position[tenant]
            body = self.inputs.body(tenant, cycle, k)
            path = f"/projects/{tenant}/logs"
            started = time.perf_counter()
            self.lags.append(started - previous_end)
            ok = self.send("POST", path, body) is not None
            previous_end = time.perf_counter()
            if ok:
                self.sample(tenant, previous_end - started)  # a kind per shard
                self.write_latencies.append(previous_end - started)
                self.acked[tenant] += 1
                last_cycle, posts = self.last_cycle[tenant]
                if last_cycle != cycle:
                    posts = []
                posts.append(k)
                self.last_cycle[tenant] = (cycle, posts)
            position[tenant] = (cycle, k + 1) if k + 1 < spec.cycle_posts else (cycle + 1, 0)


class MixReader(LoadThread):
    """Closed loop over the fixed 10-step read cycle."""

    def __init__(self, address, tracer, inputs: wl.MixInputs):
        super().__init__(address, tracer)
        self.inputs = inputs
        self.hot_rows = 0
        self.name_counts: dict[str, int] = {}

    def loop(self) -> None:
        inputs = self.inputs
        hot = f"/projects/{inputs.hot}/dataframe?names={wl.NAMES_ARG}"
        paths = {
            "hot": hot,
            "latest": hot + "&latest=1",
            "sql": wl.sql_path(inputs.hot, wl.SQL_AGGREGATE),
        }
        previous_end = time.perf_counter()
        step = cold_turn = 0
        while time.perf_counter() < self.deadline:
            kind = inputs.cycle[step % len(inputs.cycle)]
            step += 1
            if kind == "cold":
                tenant = inputs.cold[cold_turn % len(inputs.cold)]
                cold_turn += 1
                path = f"/projects/{tenant}/dataframe?names={wl.NAMES_ARG}"
            else:
                path = paths[kind]
            started = time.perf_counter()
            self.lags.append(started - previous_end)
            data = self.send("GET", path)
            previous_end = time.perf_counter()
            if data is None:
                continue
            try:
                kind, size = self._check(kind, data)
            except ValueError as problem:
                self.fail(f"{kind} read: {problem}")
            else:
                self.sample(kind, previous_end - started, size)

    def _check(self, kind: str, data: bytes) -> tuple[str, float]:
        """The kind and size of a read whose output is right (else ValueError).

        A hot read's work grows with the frame it returns, and one that
        found new rows also paid for the flush and the view refresh, so hot
        reads are two kinds sized by their row count.
        """
        if kind == "sql":
            counts = {r["value_name"]: r["n"] for r in json.loads(data)["records"]}
            if sorted(counts) != sorted(wl.METRICS):
                raise ValueError(f"names {sorted(counts)}")
            if any(counts[name] < self.name_counts.get(name, 0) for name in counts):
                raise ValueError(f"counts went down: {self.name_counts} -> {counts}")
            self.name_counts = counts
            return kind, 1.0
        match = _ROWS_TAIL.search(data[-32:])
        if match is None:
            raise ValueError("no row count in the response")
        rows = int(match.group(1))
        if kind == "cold":
            expected = self.inputs.spec.cold_iterations
            if rows != expected:
                raise ValueError(f"{rows} rows, expected {expected}")
            return kind, 1.0
        if rows <= 0:
            raise ValueError("empty frame")
        if kind == "latest":
            return kind, 1.0
        if rows < self.hot_rows:
            raise ValueError(f"rows went down: {self.hot_rows} -> {rows}")
        kind = "hot_fresh" if rows > self.hot_rows else "hot_same"
        self.hot_rows = rows
        return kind, float(rows)


class MixWriter(LoadThread):
    """Open loop: one append every 1/rate seconds, timed from its due time."""

    sampled = False  # the unit of read_write_mix is a read

    def __init__(self, address, tracer, inputs: wl.MixInputs):
        super().__init__(address, tracer)
        self.inputs = inputs
        self.acked: list[int] = []

    def loop(self) -> None:
        spec = self.inputs.spec
        start = time.perf_counter()
        logs = f"/projects/{self.inputs.hot}/logs"
        commit = f"/projects/{self.inputs.hot}/commit"
        for i, body in enumerate(self.inputs.append_bodies):
            due = start + i / spec.write_rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lags.append(max(0.0, time.perf_counter() - due))
            if self.send("POST", logs, body) is not None:
                self.write_latencies.append(time.perf_counter() - due)
                self.acked.append(i)
            if (i + 1) % spec.commit_every == 0:
                self.send("POST", commit, b"{}")


# ---------------------------------------------------------------------------
# Socket workloads: seeding, threads, output checks
# ---------------------------------------------------------------------------


class IngestWorkload:
    def __init__(self, spec: wl.IngestSpec):
        self.spec = spec

    def _tenants(self, client: Client, seed: int) -> list[str]:
        spec = self.spec
        if not spec.workers:
            return [wl.tenant_name(seed, i) for i in range(spec.tenants)]
        # Two tenants per worker, whatever the ring looks like: resolve a
        # fixed number of candidates and keep the first two of each worker.
        per_worker = spec.tenants // spec.workers
        placed: dict[str, list[str]] = {}
        for i in range(wl.FLEET_CANDIDATES):
            name = wl.tenant_name(seed, i)
            worker = client.get_json(f"/fleet/resolve?project={name}")["worker"]
            placed.setdefault(worker, []).append(name)
        chosen = [names[:per_worker] for names in placed.values()]
        if len(chosen) != spec.workers or any(len(c) < per_worker for c in chosen):
            raise procs.ProgramError(f"ring placed the candidates unevenly: {placed}")
        # Interleave so each client thread drives one tenant of every worker.
        return [names[i] for i in range(per_worker) for names in chosen]

    def setup(self, client: Client, seed: int, seconds: float) -> dict:
        tenants = self._tenants(client, seed)
        inputs = wl.IngestInputs(self.spec, seed, tenants)
        for k in range(self.spec.warm_posts):
            for tenant in tenants:
                status, data = client.request(
                    "POST", f"/projects/{tenant}/logs", inputs.body(tenant, 0, k)
                )
                if status != 202:
                    raise procs.ProgramError(f"warm-up append failed: {status} {data[:200]!r}")
        return {"inputs": inputs, "tenants": tenants}

    def threads(self, state: dict, address, tracer) -> list[LoadThread]:
        tenants = state["tenants"]
        half = len(tenants) // 2
        return [
            IngestThread(address, tracer, state["inputs"], tenants[:half]),
            IngestThread(address, tracer, state["inputs"], tenants[half:]),
        ]

    def written_tenants(self, state: dict) -> list[str]:
        return state["tenants"]

    def drain(self, client: Client, state: dict, threads: list[LoadThread]) -> dict[str, int]:
        """The flush-forcing count read per tenant (this is ``client.drain_s``)."""
        return {
            tenant: client.get_json(wl.sql_path(tenant, "select count(*) as n from logs"))[
                "records"
            ][0]["n"]
            for tenant in state["tenants"]
        }

    def check(self, client: Client, state: dict, threads, counts: dict[str, int]):
        spec, inputs = self.spec, state["inputs"]
        problems: list[str] = []
        units = stored = 0
        failed = sum(t.failed for t in threads)
        for thread in threads:
            for tenant in thread.tenants:
                acked = thread.acked[tenant]
                expected = (spec.warm_posts + acked) * spec.records
                stored += counts[tenant]
                # A failed POST may or may not have landed.
                if not expected <= counts[tenant] <= expected + failed * spec.records:
                    problems.append(f"{tenant}: {counts[tenant]} log rows, acknowledged {expected}")
                else:
                    units += acked * spec.records
                # Values of the newest run, read back through the raw tables:
                # a dataframe read here would pivot the tenant's whole
                # history, so its cost would grow with the program's speed.
                cycle, posts = thread.last_cycle[tenant]
                rows = client.get_json(
                    wl.sql_path(
                        tenant,
                        "select value_name, ctx_id, value from logs "
                        f"where filename = '{wl.cycle_filename(cycle)}'",
                    )
                )["records"]
                problem = compare_values(rows, inputs.expected_rows(tenant, posts))
                if problem:
                    problems.append(f"{tenant} cycle {cycle}: {problem}")
        if spec.workers:
            workers = client.get_json("/service/stats")["workers"]
            idle = [w for w, stats in workers.items() if not stats.get("pool", {}).get("hits")]
            if idle or len(workers) < spec.workers:
                problems.append(f"workers without traffic: {idle or sorted(workers)}")
        return units, stored, problems


def compare_values(rows: list[dict], expected: dict[tuple[str, int], float]) -> str | None:
    """Stored ``(value_name, ctx_id, value)`` rows against the generated ones."""
    served = {(r["value_name"], r["ctx_id"]): float(r["value"]) for r in rows}
    if len(rows) != len(served):
        return f"{len(rows) - len(served)} duplicate rows"
    if served != expected:
        wrong = [key for key in expected if served.get(key) != expected[key]]
        return (
            f"{len(wrong)} of {len(expected)} values differ or are missing, "
            f"{len(set(served) - set(expected))} unexpected (first: {wrong[:1]})"
        )
    return None


class MixWorkload:
    def __init__(self, spec: wl.MixSpec):
        self.spec = spec

    def setup(self, client: Client, seed: int, seconds: float) -> dict:
        spec = self.spec
        inputs = wl.MixInputs(spec, seed, seconds)

        def post(path: str, body: bytes) -> None:
            status, data = client.request("POST", path, body)
            if not 200 <= status < 300:
                raise procs.ProgramError(f"seeding {path} failed: {status} {data[:200]!r}")

        for body in inputs.hot_bodies:
            post(f"/projects/{inputs.hot}/logs", body)
            post(f"/projects/{inputs.hot}/commit", b"{}")
        for tenant in inputs.cold:
            post(f"/projects/{tenant}/logs", inputs.cold_bodies[tenant])
        # Fixed-count warm-up: every tenant's view once, then the hot paths.
        for tenant in (*inputs.cold, inputs.hot):
            client.get_json(f"/projects/{tenant}/dataframe?names={wl.NAMES_ARG}")
        for _ in range(spec.warm_hot_reads):
            client.get_json(f"/projects/{inputs.hot}/dataframe?names={wl.NAMES_ARG}")
        client.get_json(f"/projects/{inputs.hot}/dataframe?names={wl.NAMES_ARG}&latest=1")
        client.get_json(wl.sql_path(inputs.hot, wl.SQL_AGGREGATE))
        return {"inputs": inputs}

    def threads(self, state: dict, address, tracer) -> list[LoadThread]:
        return [
            MixReader(address, tracer, state["inputs"]),
            MixWriter(address, tracer, state["inputs"]),
        ]

    def written_tenants(self, state: dict) -> list[str]:
        return [state["inputs"].hot]

    def drain(self, client: Client, state: dict, threads) -> dict[str, int]:
        hot = state["inputs"].hot
        rows = client.get_json(wl.sql_path(hot, "select count(*) as n from logs"))["records"]
        return {hot: rows[0]["n"]}

    def check(self, client: Client, state: dict, threads, counts: dict[str, int]):
        spec, inputs = self.spec, state["inputs"]
        reader, writer = threads
        problems: list[str] = []
        per_iteration = len(wl.METRICS)
        seeded = spec.hot_runs * spec.hot_iterations * per_iteration
        expected = seeded + len(writer.acked) * spec.append_iterations * per_iteration
        slack = writer.failed * spec.append_iterations * per_iteration
        if not expected <= counts[inputs.hot] <= expected + slack:
            problems.append(f"hot tenant: {counts[inputs.hot]} log rows, acknowledged {expected}")
        stored = counts[inputs.hot]
        for tenant in inputs.cold:
            n = client.get_json(wl.sql_path(tenant, "select count(*) as n from logs"))["records"][0]["n"]
            stored += n
            if n != spec.cold_iterations * per_iteration:
                problems.append(f"{tenant}: {n} log rows, seeded {spec.cold_iterations * per_iteration}")
        frame = client.get_json(f"/projects/{inputs.hot}/dataframe?names={wl.NAMES_ARG}&primary=1")
        if writer.failed == 0:
            problem = compare_frames(wl.frame_rows(frame["records"]), inputs.reference_frame(writer.acked))
            if problem:
                problems.append(f"final hot frame: {problem}")
        return len(reader.latencies), stored, problems


def compare_frames(served: list[tuple], reference: list[tuple]) -> str | None:
    if served == reference:
        return None
    if len(served) != len(reference):
        return f"{len(served)} rows, reference has {len(reference)}"
    index = next(i for i, (a, b) in enumerate(zip(served, reference)) if a != b)
    return f"row {index} is {served[index]}, reference has {reference[index]}"


SOCKET_WORKLOADS = {
    "ingest_bulk": IngestWorkload,
    "fleet_small": IngestWorkload,
    "read_write_mix": MixWorkload,
}


# ---------------------------------------------------------------------------
# The program's own counters (per-layer counts)
# ---------------------------------------------------------------------------

_COUNTERS = {
    "service.pool.hits": ("pool.hits",),
    "service.pool.misses": ("pool.misses",),
    "service.pool.evictions": ("pool.evictions",),
    "service.pool.dropped_rows": ("pool.dropped_rows", "flush.dropped_rows"),
    "runtime.flusher.transactions": ("flush.transactions",),
    "query.cache.fast_hits": ("cache.fast_hits",),
    "query.cache.warm_hits": ("cache.warm_hits",),
    "query.cache.incremental_refreshes": ("cache.incremental_refreshes",),
    "query.cache.cold_builds": ("cache.cold_builds",),
}
_INGEST_COUNTERS = ("size_flushes", "interval_flushes", "explicit_flushes")


def counter_snapshot(client: Client, tenants: list[str]) -> dict[str, float]:
    telemetry = client.get_json("/service/telemetry")
    counters = telemetry.get("counters", {})
    snapshot = {
        metric: float(sum(counters.get(name, 0) for name in names))
        for metric, names in _COUNTERS.items()
    }
    snapshot["flush.rows"] = float(counters.get("flush.rows", 0))
    processes = list(telemetry.get("workers", {}).values()) or [telemetry]
    medians = [
        p["histograms"]["flush.ms"]["p50"]
        for p in processes
        if "flush.ms" in p.get("histograms", {})
    ]
    snapshot["runtime.flusher.flush_ms_p50"] = sum(medians) / len(medians) if medians else 0.0
    for key in _INGEST_COUNTERS:
        snapshot[f"service.ingest.{key}"] = 0.0
    for tenant in tenants:
        ingest = client.get_json(f"/projects/{tenant}/stats").get("ingest", {})
        for key in _INGEST_COUNTERS:
            snapshot[f"service.ingest.{key}"] += ingest.get(key, 0)
    return snapshot


def counter_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    delta = {key: after[key] - before[key] for key in after if key != "runtime.flusher.flush_ms_p50"}
    delta["runtime.flusher.flush_ms_p50"] = after["runtime.flusher.flush_ms_p50"]
    rows = delta.pop("flush.rows")
    transactions = delta["runtime.flusher.transactions"]
    delta["runtime.flusher.rows_per_txn"] = rows / transactions if transactions else 0.0
    return delta


# ---------------------------------------------------------------------------
# One window against a running server
# ---------------------------------------------------------------------------


def run_window(threads: list[LoadThread], seconds: float, host) -> Window:
    barrier = threading.Barrier(len(threads) + 1)
    for thread in threads:
        thread.barrier = barrier
        thread.start()
    program_cpu = host.cpu_seconds()
    harness_cpu = time.process_time()
    started = time.perf_counter()
    for thread in threads:
        thread.deadline = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    window = Window(seconds=max(t.finished for t in threads) - started)
    window.harness_cpu_s = time.process_time() - harness_cpu
    window.program_cpu_s = host.cpu_seconds() - program_cpu
    for thread in threads:
        window.attempted += thread.attempted
        window.failed += thread.failed
        window.kinds.extend(thread.kinds)
        window.sizes.extend(thread.sizes)
        window.latencies.extend(thread.latencies)
        window.lags.extend(thread.lags)
        window.write_latencies.extend(thread.write_latencies)
    return window


def client_metrics(window: Window) -> dict[str, float]:
    busy = window.harness_cpu_s + window.program_cpu_s
    return {
        "client.latency_p50_raw_ms": median(window.latencies) * 1000.0,
        "client.latency_p95_raw_ms": percentile(window.latencies, 95) * 1000.0,
        "client.latency_p99_ms": percentile(window.latencies, 99) * 1000.0,
        "client.write_p50_ms": median(window.write_latencies) * 1000.0,
        "client.sched_lag_p95_ms": percentile(window.lags, 95) * 1000.0,
        "client.cpu_share": window.harness_cpu_s / busy if busy else 0.0,
    }


def new_work_dir(label: str) -> Path:
    path = WORK_DIR / f"{label}-{time.time_ns():x}"
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Untraced run: program in child processes
# ---------------------------------------------------------------------------


def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    with_counters: bool = False,
    setup_repeats: int = SETUP_REPEATS,
) -> Outcome:
    """The untraced run.  ``with_counters`` also reads the program's own
    counters around the window (a few extra requests outside it)."""
    if name == "library_hindsight":
        return _measure_library(seed, seconds, setup_repeats)
    workload = SOCKET_WORKLOADS[name](wl.SPECS[name])
    outcome = Outcome(name, seed)
    work = new_work_dir(name)
    host = client = None
    try:
        setups = []
        for attempt in range(setup_repeats):
            if host is not None:
                client.close()
                host.stop()
            root = work / f"root{attempt}"
            started = time.perf_counter()
            host = procs.ServeProcess(root, work / f"logs{attempt}", workload.spec.workers)
            client = Client(*host.address)
            state = workload.setup(client, seed, seconds)
            setups.append(time.perf_counter() - started)
        tenants = workload.written_tenants(state)
        before = counter_snapshot(client, tenants) if with_counters else None
        threads = workload.threads(state, host.address, None)
        window = run_window(threads, seconds, host)
        after = counter_snapshot(client, tenants) if with_counters else None
        drain_started = time.perf_counter()
        counts = workload.drain(client, state, threads)
        drain_s = time.perf_counter() - drain_started
        units, stored, problems = workload.check(client, state, threads, counts)
        rss = host.peak_rss_bytes()
        client.close()
        code = host.stop()
        host = None
        if code != 0:
            problems.append(f"serve exited {code} on SIGTERM")
        size = procs.disk_bytes(root)
        _fill(outcome, window, units, stored, size, rss, drain_s, setups, problems, threads)
        if with_counters:
            outcome.per_layer.update(counter_delta(before, after))
    finally:
        if host is not None:
            host.stop()
        shutil.rmtree(work, ignore_errors=True)
    return outcome


def _account(outcome: Outcome, window: Window, units: int, problems: list[str], threads=()) -> float:
    """Ops, failures and the op latency of one window (any kind of run).

    Returns the share of the ops' time that is left once the host's noise
    is taken out (see :func:`quiet_latencies`).
    """
    outcome.attempted = window.attempted
    outcome.failed = window.failed
    outcome.problems.extend(problems)
    for thread in threads:
        outcome.problems.extend(thread.problems)
    if not units:
        outcome.problems.append("no verified units")
    quiet = quiet_latencies(window.kinds, window.sizes, window.latencies)
    outcome.end_to_end["latency_p50_ms"] = median(quiet) * 1000.0
    outcome.end_to_end["latency_p95_ms"] = percentile(quiet, 95) * 1000.0
    outcome.info.update(units=units, window_s=window.seconds, samples=len(window.latencies))
    return sum(quiet) / sum(window.latencies) if window.latencies else 1.0


def _fill(outcome, window, units, stored, size, rss, drain_s, setups, problems, threads=()) -> None:
    """The untraced run's end-to-end metrics, and beside them what the
    client saw before the host's noise was taken out."""
    quiet_share = _account(outcome, window, units, problems, threads)
    outcome.end_to_end.update(
        {
            "throughput_per_s": units / (window.seconds * quiet_share + drain_s),
            "rss_mb": rss / 2**20,
            "disk_bytes_per_record": size / stored if stored else 0.0,
            "setup_s": median(setups),
        }
    )
    outcome.per_layer.update(client_metrics(window))
    outcome.per_layer.update(
        {
            "cpu_ms_per_unit": window.program_cpu_s * 1000.0 / units if units else 0.0,
            "client.throughput_raw_per_s": units / (window.seconds + drain_s),
            "client.host_noise_share": 1.0 - quiet_share,
            "client.drain_s": drain_s,
        }
    )
    outcome.info.update(
        log_rows=stored, setups_s=setups, disk_bytes=size, program_cpu_s=window.program_cpu_s
    )


def _measure_library(seed: int, seconds: float, setup_repeats: int) -> Outcome:
    outcome = Outcome("library_hindsight", seed)
    work = new_work_dir("library_hindsight")
    child = None
    try:
        setups = []
        for attempt in range(setup_repeats):
            if child is not None:
                child.stop()
            root = work / f"root{attempt}"
            started = time.perf_counter()
            child = procs.LibraryProcess(work / f"logs{attempt}")
            child.call({"cmd": "setup", "root": str(root), "seed": seed})
            setups.append(time.perf_counter() - started)
        cpu = child.cpu_seconds()
        report = child.call({"cmd": "run", "seconds": seconds})
        window = _library_window(report)
        window.program_cpu_s = child.cpu_seconds() - cpu
        rss = child.peak_rss_bytes()
        code = child.stop()
        child = None
        problems = list(report["failures"])
        if code != 0:
            problems.append(f"library child exited {code}")
        problems.extend(check_library_frame(wl.LIBRARY_HINDSIGHT, seed, report["final"]))
        size = procs.disk_bytes(root)
        _fill(outcome, window, len(report["latencies"]), report["log_rows"], size, rss,
              report["drain_s"], setups, problems)
        outcome.per_layer.update(library_counters(report))
        outcome.info.update(projects=report["projects"], phase_seconds=report["phase_seconds"])
    finally:
        if child is not None:
            child.stop()
        shutil.rmtree(work, ignore_errors=True)
    return outcome


def _library_window(report: dict) -> Window:
    return Window(
        seconds=report["window_s"],
        attempted=report["attempted"],
        failed=report["attempted"] - len(report["latencies"]),
        # A round's work grows with the project, so its index is its kind.
        kinds=[f"round_{index}" for index in report["rounds"]],
        sizes=[1.0] * len(report["latencies"]),
        latencies=report["latencies"],
    )


def check_library_frame(spec: wl.LibrarySpec, seed: int, final: dict | None) -> list[str]:
    """The last round's frame against the script's closed form."""
    if final is None:
        return ["no round completed"]
    reference = wl.library_reference(spec, seed, final["versions"], final["round"])
    served = [tuple(row) for row in final["rows"]]
    problem = compare_frames(served, reference)
    return [f"final frame of round {final['round']}: {problem}"] if problem else []


def library_counters(report: dict) -> dict[str, float]:
    counters = report["counters"]
    transactions = counters["transactions"]
    return {
        "runtime.flusher.transactions": float(transactions),
        "runtime.flusher.rows_per_txn": counters["written_rows"] / transactions if transactions else 0.0,
        "query.cache.fast_hits": float(counters["fast_hits"]),
        "query.cache.warm_hits": float(counters["warm_hits"]),
        "query.cache.incremental_refreshes": float(counters["incremental_refreshes"]),
        "query.cache.cold_builds": float(counters["cold_builds"]),
    }


# ---------------------------------------------------------------------------
# Traced run: server on a thread of this process, wrappers installed
# ---------------------------------------------------------------------------


def trace(
    name: str,
    seed: int,
    seconds: float,
    trace_dir: Path | None = None,
    *,
    smoke: bool = False,
) -> Outcome:
    """Run ``name`` in-process under the tracer; per-layer span metrics only.

    ``smoke`` shrinks seeding and warm-up (never the checks) so that the
    whole pass fits a unit test.
    """
    outcome = Outcome(name, seed)
    work = new_work_dir(f"trace-{name}")
    tracer = tracing.install(tracing.Tracer())
    try:
        run = _trace_library if name == "library_hindsight" else _trace_socket
        spans, worker_spans, ops = run(outcome, tracer, work, name, seed, seconds, smoke)
        outcome.per_layer.update(span_metrics(spans, worker_spans, ops))
        outcome.info["untraced_targets"] = tracer.missing
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            with open(trace_dir / f"{name}-{seed}.spans.jsonl", "w", encoding="utf-8") as handle:
                for process, process_spans in enumerate((spans, *worker_spans)):
                    for span in process_spans:
                        handle.write(json.dumps([process, *span]) + "\n")
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return outcome


def _trace_socket(outcome, tracer, work, name, seed, seconds, smoke):
    workload = SOCKET_WORKLOADS[name]((wl.SMOKE_SPECS if smoke else wl.SPECS)[name])
    workers = workload.spec.workers
    worker_dir = work / "workers"
    worker_dir.mkdir()
    host = procs.InProcessServe(
        work / "root", workers=workers, worker_trace_dir=worker_dir if workers else None
    )
    try:
        client = Client(*host.address)
        state = workload.setup(client, seed, seconds)
        threads = workload.threads(state, host.address, tracer)
        tracer.spans.clear()
        window_start = time.perf_counter_ns()
        window = run_window(threads, seconds, host)
        window_end = time.perf_counter_ns()
        counts = workload.drain(client, state, threads)
        units, stored, problems = workload.check(client, state, threads, counts)
        client.close()
        # Taken after the checks so the window's last handler spans have
        # closed; the checks' own spans start after the window and drop out.
        beside = {i for thread in threads if not thread.sampled for i in thread.span_ids}
        spans = [s for s in tracer.spans if s[4] <= window_end and s[2] not in beside]
    finally:
        host.stop()
    # One list per worker process: span ids are only unique within a process.
    worker_spans = [
        [span for span in tracing.load(path) if window_start <= span[4] <= window_end]
        for path in sorted(worker_dir.glob("*.spans.jsonl"))
    ]
    _account(outcome, window, units, problems, threads)
    return spans, worker_spans, len(window.latencies)


def _trace_library(outcome, tracer, work, name, seed, seconds, smoke):
    from library_child import LibraryRunner

    spec = wl.SMOKE_SPECS[name] if smoke else dataclasses.replace(wl.SPECS[name], warm_projects=1)
    runner = LibraryRunner(work / "root", seed, spec, tracer)
    try:
        runner.warm_up()
        tracer.spans.clear()
        report = runner.run(seconds)
    finally:
        runner.close()
    problems = list(report["failures"]) + check_library_frame(spec, seed, report["final"])
    _account(outcome, _library_window(report), len(report["latencies"]), problems)
    return list(tracer.spans), [], len(report["latencies"])


def span_metrics(spans: list, worker_spans: list[list], ops: int) -> dict[str, float]:
    """Every span-derived per-layer metric, 0 where the layer did not run.

    ``spans`` are this process's; ``worker_spans`` holds one list per traced
    worker process of the fleet.
    """
    ops = max(ops, 1)
    totals = tracing.totals_by_name(spans)
    remote: dict[str, dict[str, int]] = {}
    for process_spans in worker_spans:
        for span_name, entry in tracing.totals_by_name(process_spans).items():
            merged = remote.setdefault(span_name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                merged[key] += value

    def total(span_name: str, key: str) -> int:
        return totals.get(span_name, {}).get(key, 0) + remote.get(span_name, {}).get(key, 0)

    metrics = {
        metric: total(span_name, "self_ns") / 1e6 / ops
        for span_name, metric in tracing.SELF_TIME_METRIC.items()
    }
    # The hop's span covers the worker's whole handling of the request.
    hop = totals.get("fleet.transport.hop", {}).get("self_ns", 0)
    hop -= remote.get("service.server.dispatch", {}).get("ns", 0)
    metrics["fleet.transport.hop_ms"] = max(hop, 0) / 1e6 / ops
    for span_name, metric in tracing.PER_CALL_METRIC.items():
        calls = total(span_name, "calls")
        metrics[metric] = total(span_name, "self_ns") / 1e3 / calls if calls else 0.0
    backfill = totals.get("core.hindsight.backfill", {"calls": 0, "ns": 0})
    versions = backfill["calls"] * wl.LIBRARY_HINDSIGHT.window
    metrics["core.hindsight.backfill_ms_per_version"] = (
        backfill["ns"] / 1e6 / versions if versions else 0.0
    )
    name_of = {span[0]: span[3] for span in spans}
    for phase, metric in (
        ("phase.query_cold", "core.session.dataframe_cold_ms"),
        ("phase.query_warm", "core.session.dataframe_warm_ms"),
    ):
        durations = [
            span[5] - span[4]
            for span in spans
            if span[3] == "core.session.dataframe" and name_of.get(span[1]) == phase
        ]
        metrics[metric] = sum(durations) / 1e6 / len(durations) if durations else 0.0
    metrics["trace.attributed_share"] = tracing.attributed_share(spans)
    return metrics
