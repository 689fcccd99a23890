"""T8 — Service throughput: batched vs. unbatched ingestion under load.

The service layer (``repro.service``) fronts FlorDB for many concurrent
clients and amortizes SQLite's per-transaction commit cost by coalescing
appended records into one transaction per flush.  This benchmark drives
the bulk-append endpoint with :class:`~repro.workloads.ServiceWorkload`
(8 client threads by default) at several batch sizes — ``batch`` controls
both the records per request and each shard's ``flush_size`` hand-off
threshold —
and reports requests/sec, records/sec and p50/p99 append latency.

Expected shape: records/sec grows steeply with batch size (each batched
transaction pays the commit cost once for ``batch`` records), while
per-request latency grows only mildly.  The headline claim, asserted
below: batch ≥ 64 sustains at least 5× the append throughput of
batch = 1 under 8 concurrent clients.  A second sweep holds the batch
fixed and varies client concurrency to show throughput is stable as
contention rises (per-shard locks serialize writers per tenant, tenants
proceed independently).
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.service import FlorService
from repro.webapp.framework import TestClient
from repro.workloads import ServiceLoadReport, ServiceWorkload

BATCH_SWEEP = [1, 16, 64]
CLIENT_SWEEP = [2, 8]
CLIENTS = 8
REQUESTS_PER_CLIENT = 30
PROJECTS = 4


def _drive(tmp_path, name: str, *, batch: int, clients: int) -> ServiceLoadReport:
    service = FlorService(
        tmp_path / name,
        pool_capacity=PROJECTS,
        flush_size=batch,
        flush_interval=None,
    )
    try:
        workload = ServiceWorkload(
            clients=clients,
            requests_per_client=REQUESTS_PER_CLIENT,
            records_per_request=batch,
            projects=PROJECTS,
        )
        result = workload.run(TestClient(service.app()))
        assert result.errors == 0
        return result
    finally:
        service.close()


def test_batched_ingestion_throughput(benchmark, tmp_path):
    """Batch ≥ 64 must sustain ≥ 5× the records/sec of batch = 1."""
    results: dict[int, ServiceLoadReport] = {}
    for batch in BATCH_SWEEP[:-1]:
        results[batch] = _drive(tmp_path, f"t8_b{batch}", batch=batch, clients=CLIENTS)
    results[BATCH_SWEEP[-1]] = benchmark.pedantic(
        lambda: _drive(tmp_path, f"t8_b{BATCH_SWEEP[-1]}", batch=BATCH_SWEEP[-1], clients=CLIENTS),
        rounds=1,
        iterations=1,
    )
    report(
        f"T8: append throughput vs batch size ({CLIENTS} clients)",
        [
            {
                "batch": batch,
                "records_s": result.records_per_second,
                "requests_s": result.requests_per_second,
                "p50_ms": result.percentile(50) * 1e3,
                "p99_ms": result.percentile(99) * 1e3,
                "records": result.records,
            }
            for batch, result in sorted(results.items())
        ],
    )
    baseline = results[1].records_per_second
    batched = results[BATCH_SWEEP[-1]].records_per_second
    assert batched >= 5.0 * baseline, (
        f"batched ingestion ({BATCH_SWEEP[-1]}) reached only "
        f"{batched / baseline:.1f}x the unbatched baseline"
    )


@pytest.mark.parametrize("clients", CLIENT_SWEEP)
def test_throughput_under_concurrency(benchmark, tmp_path, clients):
    """Records/sec should not collapse as client concurrency rises."""
    result = benchmark.pedantic(
        lambda: _drive(tmp_path, f"t8_c{clients}", batch=64, clients=clients),
        rounds=1,
        iterations=1,
    )
    report(
        f"T8: concurrency sweep (batch=64, {clients} clients)",
        [
            {
                "clients": clients,
                "records_s": result.records_per_second,
                "p50_ms": result.percentile(50) * 1e3,
                "p99_ms": result.percentile(99) * 1e3,
            }
        ],
    )
    assert result.records > 0
