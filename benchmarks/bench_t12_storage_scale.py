"""T12 — Storage layer at scale: the cost of the protocol seam.

One measurement of the pluggable storage layer (``repro.storage``): the
T8-shape batched-vs-unbatched ingest sweep runs through the protocol seam,
and batched ingestion must still clear the **≥ 5×** floor T8 asserts,
proving the storage seam costs the write path nothing.

The assertion fires at full scale only (T5/T9/T10's convention); CI's
smoke-bench job records the smoke-scale trajectory in ``BENCH_*.json``.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.service import FlorService
from repro.webapp.framework import TestClient
from repro.workloads import ServiceLoadReport, ServiceWorkload

INGEST_SCALES = {"smoke": 10, "full": 30}  # requests per client
INGEST_CLIENTS = 8
INGEST_PROJECTS = 4


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
