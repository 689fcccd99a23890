"""T14 — Fleet scaling: batched ingest throughput vs. worker count.

One ``repro serve`` process caps aggregate ingest at one GIL and one
SQLite writer lock per shard host.  ``repro serve --workers N`` splits the
data plane into N worker processes behind a consistent-hash router
(:mod:`repro.fleet`), so tenants on different workers stop sharing either
bottleneck.  This benchmark boots real fleets (router + supervisor +
worker subprocesses, sockets end to end) at each worker count and drives
the T8-shape batched workload over keep-alive HTTP with
:meth:`~repro.workloads.ServiceWorkload.run_http`.

Asserted at every scale (the invariants):

* zero request errors and zero dropped rows;
* every acknowledged record is stored — per-project SQL counts after a
  read's flush barrier sum to exactly the acked total;
* the ring actually spreads the tenants (> 1 distinct owner at N = 4);
* the supervisor exits 0 after a drain hand-off shutdown.

Asserted at full scale only (T5/T9/T10/T13's convention, because smoke
runs on CI boxes with too few cores to demonstrate scaling): 4 workers
sustain ≥ 2.5× the records/sec of the single-worker fleet.
"""

from __future__ import annotations

from urllib.parse import quote

import pytest
from conftest import report

from repro.testing import FleetProcess
from repro.workloads import ServiceLoadReport, ServiceWorkload

WORKER_SWEEP = [1, 4]
PROJECTS = 4
#: Full-scale headline: 4 workers vs 1 worker on the same workload.
SCALING_FLOOR = 2.5

SCALES = {
    "smoke": {"clients": 4, "requests_per_client": 8, "batch": 16},
    "full": {"clients": 8, "requests_per_client": 40, "batch": 64},
}

COUNT_METRIC_SQL = quote("SELECT COUNT(*) AS n FROM logs WHERE value_name = 'metric'")


def _drive(
    tmp_path, label: str, *, workers: int, clients: int, requests_per_client: int, batch: int
) -> tuple[ServiceLoadReport, dict[str, str]]:
    workload = ServiceWorkload(
        clients=clients,
        requests_per_client=requests_per_client,
        records_per_request=batch,
        projects=PROJECTS,
    )
    with FleetProcess(tmp_path / label, workers=workers) as fleet:
        result = workload.run_http(fleet.base_url)
        assert result.errors == 0, f"{result.errors} failed requests at {workers} workers"
        # Invariant: acked == stored.  The dataframe read is the flush
        # barrier; the SQL count is the on-disk truth.
        stored = 0
        for project in workload.project_names():
            fleet.get(f"/projects/{project}/dataframe?names=metric")
            stats = fleet.get(f"/projects/{project}/stats")
            assert stats["flusher"]["dropped_rows"] == 0
            rows = fleet.get(f"/projects/{project}/sql?q={COUNT_METRIC_SQL}")["records"]
            stored += int(rows[0]["n"])
        assert stored == result.records, (
            f"acked {result.records} records but stored {stored} at {workers} workers"
        )
        placement = {p: fleet.resolve(p) for p in workload.project_names()}
        assert fleet.terminate() == 0
    return result, placement


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_fleet_ingest_scales_with_workers(benchmark, tmp_path, scale):
    params = SCALES[scale]
    results: dict[int, ServiceLoadReport] = {}
    placements: dict[int, dict[str, str]] = {}
    for workers in WORKER_SWEEP[:-1]:
        results[workers], placements[workers] = _drive(
            tmp_path, f"t14_w{workers}", workers=workers, **params
        )
    top = WORKER_SWEEP[-1]
    results[top], placements[top] = benchmark.pedantic(
        lambda: _drive(tmp_path, f"t14_w{top}", workers=top, **params),
        rounds=1,
        iterations=1,
    )
    report(
        f"T14: fleet ingest scaling, {scale} scale "
        f"({params['clients']} clients, batch={params['batch']})",
        [
            {
                "workers": workers,
                "records_s": result.records_per_second,
                "requests_s": result.requests_per_second,
                "p50_ms": result.percentile(50) * 1e3,
                "p99_ms": result.percentile(99) * 1e3,
                "records": result.records,
                "owners": len(set(placements[workers].values())),
            }
            for workers, result in sorted(results.items())
        ],
    )
    # The ring must spread 4 tenants over the 4-worker fleet.
    assert len(set(placements[top].values())) > 1, (
        f"all {PROJECTS} tenants landed on one worker: {placements[top]}"
    )
    assert len(set(placements[1].values())) == 1
    if scale == "full":
        speedup = results[top].records_per_second / results[1].records_per_second
        assert speedup >= SCALING_FLOOR, (
            f"{top} workers reached only {speedup:.2f}x the single-worker "
            f"throughput (floor {SCALING_FLOOR}x)"
        )
