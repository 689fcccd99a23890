"""Payload builders for the service's introspection routes.

``GET /projects/<name>/stats``, ``GET /service/stats`` and ``GET
/service/telemetry`` serve the same counters at three scopes: every
component counts once, in its own :class:`~repro.obs.MetricsRegistry`
scope, and scopes feed upward (flusher → shard session → service
process).  The per-tenant blocks here read the live shard's ``.stats``
views, the host block the pool's, the telemetry payload the outermost
registry — so the routes cannot drift apart, and summing a per-shard field
over every incarnation gives the telemetry counter of the matching name
(``docs/observability.md`` has the table).  Every block has exactly one
builder, used by the single-process service routes and re-aggregated by
the fleet router's control plane.
"""

from __future__ import annotations

from typing import Any

from .pool import ProjectShard


def qos_stats(service, tenant: str | None = None) -> dict[str, Any] | None:
    """The admission snapshot (one tenant's or fleet-wide); None with QoS off."""
    if service.admission is None:
        return None
    return service.admission.snapshot(tenant)


def shard_stats_payload(service, shard: ProjectShard) -> dict[str, Any]:
    """The per-tenant block of ``GET /projects/<name>/stats``.

    ``dropped_rows_total`` is the tenant's monotone (per service process)
    count of acknowledged rows its writers shed; a client that sees it
    unchanged across a read knows no acked row was dropped in
    between (the chaos harness's seal protocol; see docs/testing.md).
    The ``incarnation`` identifies the live shard handle, whose own
    flusher counters reset on reopen.
    """
    pool = service.pool
    return {
        "project": shard.session.projid,
        "incarnation": shard.incarnation,
        "dropped_rows_total": pool.dropped_rows_total(shard.name),
        "pending": shard.pending,
        "ingest": shard.ingest,
        "flusher": shard.session.flusher.stats.as_dict(),
        "qos": qos_stats(service, shard.session.projid),
        "query_cache": shard.session.query.stats.as_dict(),
    }


def service_stats_payload(service) -> dict[str, Any]:
    """The host-level block of ``GET /service/stats``."""
    pool = service.pool
    payload: dict[str, Any] = {
        "open_shards": pool.open_shards(),
        "capacity": pool.capacity,
        "pool": pool.stats.as_dict(),
        "flush_size": service.flush_size,
        "flush_interval": service.flush_interval,
        "jobs": service.job_counts(),
    }
    qos = qos_stats(service)
    if qos is not None:
        payload["qos"] = qos
    agent = service.worker_agent
    if agent is not None:
        # Fleet identity: which process this is, how many shards it
        # currently owns handles for, and how long since the router
        # last acknowledged its heartbeat.
        payload["worker"] = {**agent.info(), "owned_shards": len(pool)}
    return payload


def telemetry_payload(service) -> dict[str, Any]:
    """One ``GET /service/telemetry`` snapshot: registry + tail-broker view.

    Counters are cumulative; feed consumers (the ``repro monitor`` CLI,
    the fleet router's fan-in) difference successive snapshots to get
    rates, so a snapshot is cheap to produce and carries no derived state.
    """
    payload = service.metrics.snapshot()
    payload["tail"] = service.tail.stats()
    payload["open_shards"] = len(service.pool)
    payload["jobs"] = service.job_counts()
    agent = service.worker_agent
    if agent is not None:
        payload["worker"] = agent.info()
    return payload
