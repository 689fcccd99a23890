"""Worker-side fleet agent: registration and heartbeats.

A fleet worker is an ordinary ``repro serve`` process — same service, same
pool, same embedded job workers — plus this agent.  The supervisor spawns
the worker with ``--fleet-worker <id> --fleet-register <router-url>`` and
an ephemeral port; only the worker knows which port it actually bound, so
the control plane is push-based:

1. once the worker's socket is listening, :meth:`WorkerAgent.start` POSTs
   ``{worker_id, url, pid}`` to ``/fleet/register`` (retrying — the router
   accepts connections from the instant it binds, but its handler loop may
   start a beat later);
2. a daemon thread then POSTs ``/fleet/heartbeat`` every ``interval``
   seconds.  The supervisor treats a stale heartbeat as a hung worker and
   restarts it, so a worker that deadlocks is recycled even though its
   process is technically alive.

The agent also feeds the worker's own ``/service/stats``: ``heartbeat_age``
is seconds since the last heartbeat the router acknowledged, which makes
"this worker looks healthy to itself but the router stopped hearing it"
visible from either side.

Heartbeats double as an orphan detector.  A transient router hiccup must
not kill the worker, but a worker whose supervisor *died* (SIGKILLed test
harness, OOM-killed front process) would otherwise run forever with
nothing routing to it.  When every heartbeat has failed continuously for
``orphan_timeout`` seconds the agent fires ``on_orphaned`` — wired by the
CLI to the same shutdown event SIGTERM uses, so the abandoned worker
drains its shards and exits instead of leaking.  The timeout is a
comfortable multiple of the supervisor's hung-worker threshold: a *live*
supervisor restarts a silent worker long before the worker gives up on a
silent supervisor.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from ..errors import TransportError
from .transport import HttpClient

#: Default seconds between heartbeats; the supervisor's staleness timeout
#: must be a comfortable multiple of this.
DEFAULT_HEARTBEAT_INTERVAL = 1.0
#: Seconds of *continuously failing* heartbeats after which the worker
#: concludes its supervisor is gone and fires ``on_orphaned``.  Must stay
#: well above the supervisor's ``DEFAULT_HEARTBEAT_TIMEOUT`` (10s): if the
#: supervisor is alive it recycles a silent worker first.
DEFAULT_ORPHAN_TIMEOUT = 30.0
#: Seconds :meth:`WorkerAgent.start` retries registering before it raises.
REGISTER_TIMEOUT = 10.0


class WorkerAgent:
    """Registers one worker with the fleet control plane and keeps beating."""

    def __init__(
        self,
        worker_id: str,
        register_url: str,
        *,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        orphan_timeout: float | None = DEFAULT_ORPHAN_TIMEOUT,
        on_orphaned: Callable[[], None] | None = None,
    ):
        self.worker_id = worker_id
        self.interval = interval
        self.orphan_timeout = orphan_timeout
        self.url: str | None = None
        self.pid = os.getpid()
        self._on_orphaned = on_orphaned
        self._client = HttpClient(register_url, timeout=5.0)
        self._last_ok: float | None = None
        self._fail_since: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self, url: str) -> "WorkerAgent":
        """Register under ``url`` (the worker's bound address) and start beating."""
        self.url = url
        payload = {"worker_id": self.worker_id, "url": url, "pid": self.pid}
        deadline = time.monotonic() + REGISTER_TIMEOUT
        while True:
            try:
                self._client.post_json("/fleet/register", payload)
                break
            except TransportError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        self._last_ok = time.monotonic()
        self._thread = threading.Thread(
            target=self._beat, name=f"fleet-heartbeat-{self.worker_id}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._client.close()

    # ------------------------------------------------------------ heartbeats
    def _beat(self) -> None:
        payload = {"worker_id": self.worker_id, "pid": self.pid}
        while not self._stop.wait(self.interval):
            try:
                self._client.post_json("/fleet/heartbeat", payload)
                self._last_ok = time.monotonic()
                self._fail_since = None
            except TransportError:
                # A transient hiccup (router saturated, socket churn) must
                # not kill the worker; the age just grows until a beat
                # lands again.  But failing *continuously* past the orphan
                # timeout means the supervisor process is gone — nothing
                # routes here anymore, so drain and exit.
                now = time.monotonic()
                if self._fail_since is None:
                    self._fail_since = now
                if (
                    self._on_orphaned is not None
                    and self.orphan_timeout is not None
                    and now - self._fail_since >= self.orphan_timeout
                ):
                    self._on_orphaned()
                    return
                continue

    def orphaned_for(self) -> float | None:
        """Seconds heartbeats have been failing continuously, if they are."""
        if self._fail_since is None:
            return None
        return time.monotonic() - self._fail_since

    def heartbeat_age(self) -> float | None:
        """Seconds since the router last acknowledged a heartbeat."""
        if self._last_ok is None:
            return None
        return time.monotonic() - self._last_ok

    def info(self) -> dict:
        """The worker-identity block surfaced in ``/service/stats``."""
        return {
            "id": self.worker_id,
            "url": self.url,
            "pid": self.pid,
            "heartbeat_age": self.heartbeat_age(),
        }
