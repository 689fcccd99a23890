"""T12 — Storage layer at scale: cold-tier cache, seam cost.

Two measurements of the pluggable storage layer (``repro.storage``):

* **Warm archive reads** — cold blobs are packed into append-only archives
  behind an LRU byte cache (``repro gc --tier-cold``).  A warm cold read is
  a dict hit instead of a file open, so it must stay **within 2× of a
  hot-path read** (in practice it is faster).
* **Ingest non-regression** — the T8-shape batched-vs-unbatched sweep runs
  through the protocol seam; batched ingestion must still clear the
  **≥ 5×** floor T8 asserts, proving the storage seam costs the write path
  nothing.

Assertions fire at full scale only (T5/T9/T10's convention); CI's
smoke-bench job records the smoke-scale trajectory in ``BENCH_*.json``.
"""

from __future__ import annotations

import time

import pytest
from conftest import report

from repro.service import FlorService
from repro.storage.tiering import TieredBlobStore
from repro.versioning.objects import ObjectStore
from repro.webapp.framework import TestClient
from repro.workloads import ServiceLoadReport, ServiceWorkload

BLOB_SCALES = {"smoke": 40, "full": 150}
BLOB_SIZE = 8_192
BLOB_ROUNDS = 30

INGEST_SCALES = {"smoke": 10, "full": 30}  # requests per client
INGEST_CLIENTS = 8
INGEST_PROJECTS = 4


# ------------------------------------------------------------ cold tiering
@pytest.mark.parametrize("scale", sorted(BLOB_SCALES))
def test_warm_archive_reads_within_bound_of_hot(benchmark, tmp_path, scale):
    blobs = BLOB_SCALES[scale]
    tiered = TieredBlobStore(
        ObjectStore(tmp_path / "objects"),
        tmp_path / "archive",
        cache_bytes=4 * blobs * BLOB_SIZE,
    )
    hot_ids = [
        tiered.put(bytes([i % 251]) * BLOB_SIZE + f"hot{i}".encode())
        for i in range(blobs)
    ]
    cold_ids = [
        tiered.put(bytes([i % 251]) * BLOB_SIZE + f"cold{i}".encode())
        for i in range(blobs)
    ]
    assert tiered.archive(cold_ids) == blobs
    for object_id in cold_ids:  # first touch seeks into the pack
        tiered.get(object_id)

    def sweep(ids) -> float:
        start = time.perf_counter()
        for _ in range(BLOB_ROUNDS):
            for object_id in ids:
                tiered.get(object_id)
        return (time.perf_counter() - start) / (BLOB_ROUNDS * len(ids))

    hot_seconds = sweep(hot_ids)
    warm_seconds = benchmark.pedantic(lambda: sweep(cold_ids), rounds=1, iterations=1)
    ratio = warm_seconds / hot_seconds if hot_seconds else float("inf")
    stats = tiered.stats()
    report(
        f"T12: warm archive vs hot blob reads, {scale} scale",
        [
            {
                "blobs": blobs,
                "hot_us": hot_seconds * 1e6,
                "warm_us": warm_seconds * 1e6,
                "warm_vs_hot_x": ratio,
                "cache_hits": stats["cache_hits"],
                "cache_misses": stats["cache_misses"],
            }
        ],
    )
    if scale == "full":
        assert ratio <= 2.0, (
            f"warm archive-cache reads are {ratio:.2f}x hot-path reads "
            f"(bound: 2.0x)"
        )


# --------------------------------------------------------- ingest no-regress
def _drive_ingest(tmp_path, label: str, *, batch: int, requests: int) -> ServiceLoadReport:
    service = FlorService(
        tmp_path / label,
        pool_capacity=INGEST_PROJECTS,
        flush_size=batch,
        flush_interval=None,
    )
    try:
        workload = ServiceWorkload(
            clients=INGEST_CLIENTS,
            requests_per_client=requests,
            records_per_request=batch,
            projects=INGEST_PROJECTS,
        )
        result = workload.run(TestClient(service.app()))
        assert result.errors == 0
        return result
    finally:
        service.close()


@pytest.mark.parametrize("scale", sorted(INGEST_SCALES))
def test_ingest_throughput_not_regressed_by_storage_seam(benchmark, tmp_path, scale):
    """The T8 headline (batched ≥ 5× unbatched) must survive the refactor."""
    requests = INGEST_SCALES[scale]
    baseline = _drive_ingest(tmp_path, f"t12_i1_{scale}", batch=1, requests=requests)
    batched = benchmark.pedantic(
        lambda: _drive_ingest(tmp_path, f"t12_i64_{scale}", batch=64, requests=requests),
        rounds=1,
        iterations=1,
    )
    speedup = (
        batched.records_per_second / baseline.records_per_second
        if baseline.records_per_second
        else float("inf")
    )
    report(
        f"T12: ingest through the storage seam, {scale} scale "
        f"({INGEST_CLIENTS} clients)",
        [
            {
                "batch": 1,
                "records_s": baseline.records_per_second,
                "p99_ms": baseline.percentile(99) * 1e3,
            },
            {
                "batch": 64,
                "records_s": batched.records_per_second,
                "p99_ms": batched.percentile(99) * 1e3,
            },
        ],
    )
    if scale == "full":
        assert speedup >= 5.0, (
            f"batched ingestion through the storage seam reached only "
            f"{speedup:.1f}x the unbatched baseline (T8 asserts 5x)"
        )
