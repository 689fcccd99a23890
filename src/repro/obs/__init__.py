"""repro.obs — the live observability plane.

Three small pieces that together replace poll-the-stats-route
observability with push:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and ring-buffer latency histograms.  Every instrumented
  component (flusher, pool, pivot cache, jobs, admission) owns a scope
  of it and exposes a :class:`StatsView` as ``.stats``; the service's
  outermost registry is served by ``GET /service/telemetry``.
* :mod:`repro.obs.tail` — :class:`TailBroker`, turning post-commit
  flusher callbacks into per-project subscriber wakeups with bounded
  fan-out and slow-consumer eviction; backs ``GET /projects/<name>/tail``.
* :mod:`repro.obs.access` — :class:`AccessLog`, the sampled structured
  access log behind ``repro serve --access-log``.

See ``docs/observability.md`` for the wire protocol and metric catalog.
"""

from .access import AccessLog, stderr_emitter, tenant_of
from .metrics import DEFAULT_WINDOW, Counter, Gauge, Histogram, MetricsRegistry, StatsView
from .tail import TailBroker, TailSubscription

__all__ = [
    "AccessLog",
    "Counter",
    "DEFAULT_WINDOW",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatsView",
    "TailBroker",
    "TailSubscription",
    "stderr_emitter",
    "tenant_of",
]
