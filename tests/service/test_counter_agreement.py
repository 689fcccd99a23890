"""One source of truth for counters, asserted end to end.

Every count is taken once, in the scope of the component that saw the
event; ``/projects/<n>/stats`` reads the shard's scope, ``/service/stats``
the pool's, ``/service/telemetry`` the process's.  After a run that
exercises the ways a scope comes and goes — LRU eviction, an explicit
evict, a reopen, a dropped batch and its shard's close — the process-wide number must equal the
sum of the per-shard numbers over every shard incarnation that ever
existed, and the three routes must still speak the vocabulary checked in
below.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.query import cache as query_cache
from repro.runtime import flusher as runtime_flusher
from repro.service import FlorService
from repro.service import pool as service_pool
from repro.testing import FaultPlan, chaos_shard_factory
from repro.webapp.framework import TestClient

TENANTS = [f"t{i}" for i in range(5)]

FLUSHER_BLOCK = {
    "submitted_batches", "submitted_rows", "transactions", "written_rows",
    "max_coalesced_batches", "backpressure_waits", "write_retries",
    "dropped_batches", "dropped_rows", "wal_checkpoints",
}
CACHE_BLOCK = {
    "lookups", "fast_hits", "warm_hits", "incremental_refreshes", "cold_builds",
    "body_hits", "evictions", "invalidations", "fetched_rows", "sql_hits", "sql_runs",
}
INGEST_BLOCK = {"appended", "size_flushes", "interval_flushes", "explicit_flushes"}
POOL_BLOCK = {"hits", "misses", "evictions", "reopens", "rest_hits"}
PROJECT_STATS_KEYS = {
    "tables", "project", "pending", "ingest", "flusher", "qos", "query_cache",
}
SERVICE_STATS_KEYS = {
    "open_shards", "capacity", "pool", "flush_size", "flush_interval", "jobs",
}
TELEMETRY_KEYS = {
    "uptime_seconds", "counters", "gauges", "histograms", "tail", "open_shards", "jobs",
}
#: The counter vocabulary of a service that has opened a shard.  Names
#: documented before the registry became the only copy are first; the rest
#: had a ``.stats`` field but no telemetry twin.
TELEMETRY_COUNTERS = {
    "flush.rows", "flush.transactions", "flush.dropped_rows",
    "pool.hits", "pool.misses", "pool.evictions",
    "cache.fast_hits", "cache.warm_hits", "cache.incremental_refreshes", "cache.cold_builds",
    # newly visible
    "flush.submitted_batches", "flush.submitted_rows", "flush.backpressure_waits",
    "flush.write_retries", "flush.dropped_batches", "flush.checkpoints",
    "pool.reopens", "pool.rest_hits",
    "cache.lookups", "cache.evictions", "cache.invalidations", "cache.fetched_rows",
    "cache.body_hits", "cache.sql_hits", "cache.sql_runs",
    "checkpoint.submitted", "checkpoint.written", "checkpoint.errors",
    "checkpoint.backpressure_waits", "checkpoint.pickle_seconds", "checkpoint.write_seconds",
}


@pytest.fixture()
def deployed(tmp_path):
    """A pool of 2 over fault-wrapped shards, recording every incarnation."""
    root = tmp_path / "host"
    plan = FaultPlan(seed=11)
    build = chaos_shard_factory(root, plan)
    incarnations = []

    def factory(name):
        shard = build(name)
        incarnations.append(shard)
        return shard

    service = FlorService(
        root, pool_capacity=2, flush_size=2, flush_interval=None, shard_factory=factory
    )
    yield service, TestClient(service.app()), plan, incarnations
    service.close()


def _append(client, tenant: str, *values) -> None:
    records = [{"name": "m", "value": v, "ctx_id": i} for i, v in enumerate(values)]
    assert client.post(f"/projects/{tenant}/logs", json_body={"records": records}).status == 202


def _mixed_run(service, client, plan) -> None:
    for round_ in range(2):  # 5 tenants over 2 slots: LRU evictions, then reopens
        for tenant in TENANTS:
            _append(client, tenant, round_, round_ + 0.5)
    # A closed tenant's read: its shards are fault-wrapped, so never at
    # rest — it reopens and counts like any read that does.
    assert client.get("/projects/t0/dataframe?names=m").ok
    frame = "/projects/t4/dataframe?names=m"
    assert client.get(frame).ok  # cold build
    assert client.get(frame).ok  # fast hit
    assert client.get(frame + "&latest=1").ok  # fast hit: encodes the newest run's rows
    assert client.get(frame + "&latest=1").ok  # fast hit, answered with those bytes
    assert client.get("/projects/t4/sql?q=SELECT COUNT(*) AS n FROM pivot&names=m").ok
    assert client.get(frame).ok  # the temp table moved write_version: warm hit
    count = "/projects/t4/sql?q=SELECT COUNT(*) AS n FROM logs"
    assert client.get(count).ok  # runs the statement
    assert client.get(count).ok  # the kept answer
    _append(client, "t4", 9, 9.5)
    assert client.get(frame).ok  # incremental refresh
    assert client.get(count).ok  # the append committed: runs again
    assert service.pool.evict("t4")  # explicit evict...
    assert client.get(frame).ok  # ...and reopen: a warm hit on the kept view
    assert client.get(count).ok  # the kept cache's generation moved: runs again
    # One dropped batch: all three attempts of t4's next write find the
    # database locked; the barrier that follows surfaces the loss.
    plan.force("locked", "shard.t4.db.transaction", times=3)
    _append(client, "t4", 7, 7.5)
    with pytest.raises(sqlite3.OperationalError, match="locked"):
        client.get(frame)
    assert client.get(frame).ok
    assert service.pool.evict("t4")  # the shard that dropped them closes


def test_process_counters_equal_the_sum_over_every_shard_incarnation(deployed):
    service, client, plan, incarnations = deployed
    _mixed_run(service, client, plan)
    assert len(incarnations) > len(TENANTS)  # some tenant was reopened
    counters = client.get("/service/telemetry").json()["counters"]

    def summed(view_of, field):
        return sum(getattr(view_of(shard), field) for shard in incarnations)

    for field, name in runtime_flusher._STATS.items():
        if name is not None:
            assert counters[name] == summed(lambda s: s.session.flusher.stats, field), name
    # A tenant's pivot cache outlives its handle: count each cache once,
    # however many incarnations read through it.
    caches = {id(s.session.query.cache): s.session.query.cache for s in incarnations}
    assert len(caches) < len(incarnations)
    for field, name in query_cache._STATS.items():
        assert counters[name] == sum(getattr(c.stats, field) for c in caches.values()), name
    for field, name in service_pool._STATS.items():
        assert counters[name] == getattr(service.pool.stats, field), name
    # The run did what it set out to do.
    assert counters["flush.dropped_rows"] == 2 and counters["flush.write_retries"] == 2
    # Each dropped row counts once in the process, its shard closed or not.
    assert sum(v for name, v in counters.items() if name.endswith("dropped_rows")) == 2
    assert counters["pool.evictions"] >= 9 and counters["pool.reopens"] >= 6
    assert counters["pool.rest_hits"] == 0
    for tier in ("fast_hits", "warm_hits", "incremental_refreshes", "cold_builds"):
        assert counters[f"cache.{tier}"] >= 1, tier
    # Five reads found their view unchanged — the fast hit, the second
    # ``latest=1`` read, the warm hit, the first read after the reopen and
    # the one after the dropped batch — and were answered without encoding.
    assert counters["cache.body_hits"] == 5
    # One of four plain SQL reads found nothing committed since the last.
    assert (counters["cache.sql_hits"], counters["cache.sql_runs"]) == (1, 3)
    # And the per-tenant route reads the live incarnation of the same scopes.
    stats = client.get("/projects/t4/stats").json()
    assert stats["flusher"] == incarnations[-1].session.flusher.stats.as_dict()
    assert client.get("/service/stats").json()["pool"] == service.pool.stats.as_dict()


def test_the_three_routes_keep_their_vocabulary(deployed):
    service, client, plan, _ = deployed
    _mixed_run(service, client, plan)
    project = client.get("/projects/t4/stats").json()
    assert set(project) == PROJECT_STATS_KEYS
    assert set(project["flusher"]) == FLUSHER_BLOCK
    assert set(project["query_cache"]) == CACHE_BLOCK
    assert set(project["ingest"]) == INGEST_BLOCK
    host = client.get("/service/stats").json()
    assert set(host) == SERVICE_STATS_KEYS
    assert set(host["pool"]) == POOL_BLOCK
    telemetry = client.get("/service/telemetry").json()
    assert set(telemetry) == TELEMETRY_KEYS
    assert set(telemetry["counters"]) == TELEMETRY_COUNTERS
    assert set(telemetry["gauges"]) == {"flush.pending_rows"}
    assert set(telemetry["histograms"]) == {"flush.ms"}
    # Counts are integers on the wire: ``3``, never ``3.0``.
    blocks = (project["flusher"], project["query_cache"], project["ingest"],
              host["pool"], telemetry["counters"], telemetry["gauges"])
    for block in blocks:
        for key, value in block.items():
            assert type(value) is int, (key, value)


def test_a_read_at_rest_counts_once_in_the_process(tmp_path):
    """A closed tenant answered from its kept views counts in the pool's
    scope and in its cache's, which still feeds the process registry
    through the session that first held it."""
    import os
    import time

    service = FlorService(tmp_path / "rest", pool_capacity=1, flush_interval=None)
    client = TestClient(service.app())
    frame = "/projects/t0/dataframe?names=m"
    try:
        _append(client, "t0", 1, 1.5)
        assert client.get(frame).ok
        with service.pool.checkout("t0") as shard:
            cache = shard.session.query.cache
        assert service.pool.evict("t0")  # folds the WAL in: inside the racy window
        then = time.time() - 60
        os.utime(tmp_path / "rest" / "t0" / ".flor" / "flor.db", (then, then))
        assert client.get(frame).ok  # reopens
        assert service.pool.evict("t0")
        assert client.get(frame).ok  # at rest
        counters = client.get("/service/telemetry").json()["counters"]
        assert counters["pool.rest_hits"] == service.pool.stats.rest_hits == 1
        for field, name in service_pool._STATS.items():
            assert counters[name] == getattr(service.pool.stats, field), name
        for field, name in query_cache._STATS.items():
            assert counters[name] == getattr(cache.stats, field), name
        assert counters["cache.lookups"] == 3 and counters["cache.fast_hits"] == 1
    finally:
        service.close()
