"""Structured access logging as a wrapper around any ``handle``-able app.

:class:`AccessLog` sits between the socket layer and the framework app —
``make_server(AccessLog(app, metrics))`` — timing every dispatch.  Two
outputs, both cheap:

* **Registry** (always; a private one unless a registry is given):
  ``http.requests`` / ``http.errors`` counters and an ``http.request_ms``
  latency histogram, so request latency percentiles show up in
  ``GET /service/telemetry`` without any log parsing.
* **Log lines** (only when ``emit`` is set, i.e. ``serve --access-log``):
  ``method path status latency_ms tenant`` — one space-separated line per
  *sampled* request.  Sampling is deterministic (every Nth request, not
  random) so tests and load analysis are reproducible; the default of 1
  logs everything once the flag is on.

The tenant column is parsed from ``/projects/<name>/...`` paths — the
same notion of tenant the QoS layer keys on — and ``-`` otherwise.
Streaming responses are timed to *first byte* (handler return), not
stream completion: a tail connection held open for an hour is not a
one-hour request.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Callable

from .metrics import MetricsRegistry

if TYPE_CHECKING:
    # Annotations only: ``repro.obs`` sits below the recording runtime and
    # the query layer, which import its instruments, so it must not pull in
    # the web stack (``repro.webapp`` imports the session, a cycle).
    from ..webapp.framework import Request, Response


def tenant_of(path: str) -> str:
    """Extract the tenant (project name) from a request path, ``-`` if none."""
    parts = path.strip("/").split("/")
    if len(parts) >= 2 and parts[0] == "projects" and parts[1]:
        return parts[1]
    return "-"


class AccessLog:
    """Wrap an app's ``handle`` with timing, metrics, and sampled log lines."""

    def __init__(
        self,
        app,
        metrics: MetricsRegistry | None = None,
        *,
        emit: Callable[[str], None] | None = None,
        sample: int = 1,
    ):
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.app = app
        self.metrics = metrics or MetricsRegistry()
        self.emit = emit
        self.sample = sample
        self._seen = 0

    def handle(self, request: Request) -> Response:
        start = time.perf_counter()
        try:
            response = self.app.handle(request)
            status = response.status
            return response
        except Exception:
            status = 500
            raise
        finally:
            latency_ms = (time.perf_counter() - start) * 1000.0
            self._record(request, status, latency_ms)

    def _record(self, request: Request, status: int, latency_ms: float) -> None:
        self.metrics.inc("http.requests")
        if status >= 500:
            self.metrics.inc("http.errors")
        self.metrics.observe("http.request_ms", latency_ms)
        if self.emit is None:
            return
        self._seen += 1
        if (self._seen - 1) % self.sample:
            return
        line = (
            f"{request.method} {request.path} {status} "
            f"{latency_ms:.2f} {tenant_of(request.path)}"
        )
        self.emit(line)


def stderr_emitter(line: str) -> None:
    """Default ``--access-log`` sink: one line to stderr, immediately flushed."""
    print(line, file=sys.stderr, flush=True)
