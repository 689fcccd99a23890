"""Real-process chaos: run ``repro serve`` and SIGKILL it at named barriers.

In-process fault wrappers can model contention and latency, but the only
honest crash is a dead process: no ``finally`` blocks, no flusher drain, no
atexit — exactly what SIGKILL delivers.  :class:`ServerProcess` spawns the
real CLI (``repro serve --job-workers N``) on an ephemeral port, parses the
ready banner for the bound address, speaks JSON over one keep-alive
:class:`~repro.fleet.transport.HttpClient`, and offers
:meth:`kill_at`: poll an observable predicate (a job's first progress
event, a sealed read) and SIGKILL the instant it holds.  Barriers are
*named* so a soak report reads "killed at backfill_started", not "killed
at iteration 7 of something".

Restarting is just constructing a new :class:`ServerProcess` on the same
root — recovery time is measured from ``start()`` to the first successful
health check plus per-tenant read.

:class:`FleetProcess` extends the same management to a worker fleet
(``repro serve --workers N``): the managed process is the supervisor, and
the class adds per-worker introspection over the router's control routes —
resolve a project to its owning worker, SIGKILL one worker by pid (the
supervisor's children are not ours to ``Popen.wait`` on, so the kill is a
bare ``os.kill``), and poll ``/fleet/workers`` until the supervisor has
respawned and re-registered it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
from io import BytesIO
from pathlib import Path
from typing import Any, Callable

from ..errors import TransportError
from ..fleet.transport import HttpClient

#: Matches the serve banner: ``... at http://127.0.0.1:PORT``.
_BANNER = re.compile(r"at (http://[\d.]+:\d+)")


class ServerProcessError(RuntimeError):
    """The managed server misbehaved (never came up, vanished early, ...)."""


class ServerProcess:
    """One managed ``repro serve`` subprocess over a project root."""

    def __init__(
        self,
        root: Path | str,
        *,
        job_workers: int = 1,
        startup_timeout: float = 30.0,
        request_timeout: float = 10.0,
        extra_args: tuple[str, ...] = (),
    ):
        self.root = Path(root)
        self.job_workers = job_workers
        self.startup_timeout = startup_timeout
        self.request_timeout = request_timeout
        self.extra_args = tuple(extra_args)
        self.base_url: str | None = None
        self.client: HttpClient | None = None
        self.process: subprocess.Popen | None = None
        self.killed_at: str | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "ServerProcess":
        """Spawn the server and block until its ready banner prints."""
        src_dir = Path(__file__).resolve().parents[2]
        env = {**os.environ}
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "--project",
                str(self.root),
                "serve",
                "--port",
                "0",
                "--job-workers",
                str(self.job_workers),
                "--quiet",
                *self.extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise ServerProcessError(
                    f"server exited {self.process.returncode} before becoming ready"
                )
            line = self.process.stdout.readline()
            if not line:
                time.sleep(0.02)
                continue
            match = _BANNER.search(line)
            if match:
                self.base_url = match.group(1)
                self.client = HttpClient(self.base_url, timeout=self.request_timeout)
                return self
        raise ServerProcessError(
            f"server did not print its address within {self.startup_timeout}s"
        )

    @property
    def pid(self) -> int:
        if self.process is None:
            raise ServerProcessError("server not started")
        return self.process.pid

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def kill9(self, barrier: str = "now") -> None:
        """SIGKILL the server — the honest crash (no drain, no cleanup)."""
        if self.process is None:
            raise ServerProcessError("server not started")
        self.killed_at = barrier
        os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait(timeout=10)

    def kill_at(
        self,
        barrier: str,
        predicate: Callable[[], bool],
        *,
        timeout: float = 30.0,
        interval: float = 0.02,
    ) -> None:
        """Poll ``predicate`` and SIGKILL the moment it holds.

        The barrier name lands in :attr:`killed_at` (and any raised error)
        so a failing run states *where* in the protocol the crash landed.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.alive():
                raise ServerProcessError(
                    f"server died on its own before barrier {barrier!r}"
                )
            try:
                if predicate():
                    self.kill9(barrier)
                    return
            except (OSError, TransportError, ServerProcessError):
                pass  # transient while the predicate polls over HTTP
            time.sleep(interval)
        raise ServerProcessError(f"barrier {barrier!r} not reached within {timeout}s")

    def terminate(self, timeout: float = 20.0) -> int:
        """Graceful SIGTERM shutdown; returns the exit code."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        return self.process.returncode

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self.client is not None:
            self.client.close()
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)

    # ----------------------------------------------------------------- http
    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict[str, Any]:
        """One JSON request against the live server; a non-2xx answer raises
        :class:`urllib.error.HTTPError`, an unreachable one ``TransportError``."""
        if self.client is None:
            raise ServerProcessError("server not started")
        body = json.dumps(payload).encode() if payload is not None else b""
        response = self.client.request(method, path, body=body)
        if not response.ok:
            raise urllib.error.HTTPError(
                f"{self.base_url}{path}", response.status, response.text[:200],
                response.headers, BytesIO(response.body),  # type: ignore[arg-type]
            )
        return response.json()

    def get(self, path: str) -> dict[str, Any]:
        return self.request("GET", path)

    def post(self, path: str, payload: dict | None = None) -> dict[str, Any]:
        return self.request("POST", path, payload or {})

    def wait_healthy(self, projects: tuple[str, ...] = (), timeout: float = 30.0) -> float:
        """Seconds until ``/healthz`` plus one ``stats`` read per project succeed."""
        start = time.monotonic()
        deadline = start + timeout
        pending = ["/healthz"] + [
            f"/projects/{name}/stats" for name in projects
        ]
        while pending and time.monotonic() < deadline:
            try:
                self.get(pending[0])
                pending.pop(0)
            except (OSError, TransportError):
                time.sleep(0.05)
        if pending:
            raise ServerProcessError(
                f"server not healthy within {timeout}s (stuck on {pending[0]})"
            )
        return time.monotonic() - start


class FleetProcess(ServerProcess):
    """One managed ``repro serve --workers N`` supervisor over a root.

    The inherited HTTP helpers speak to the *router*; data-plane calls are
    transparently proxied to the owning worker, so ingest/seal/read code
    written against :class:`ServerProcess` drives a fleet unchanged.
    """

    def __init__(
        self,
        root: Path | str,
        *,
        workers: int = 2,
        job_workers: int = 0,
        startup_timeout: float = 90.0,
        request_timeout: float = 30.0,
        extra_args: tuple[str, ...] = (),
    ):
        super().__init__(
            root,
            job_workers=job_workers,
            startup_timeout=startup_timeout,
            request_timeout=request_timeout,
            extra_args=("--workers", str(workers), *extra_args),
        )
        self.workers = workers

    # ------------------------------------------------------------ inspection
    def worker_views(self) -> list[dict[str, Any]]:
        """The supervisor's registry, one view per worker id."""
        return self.get("/fleet/workers")["workers"]

    def worker_view(self, worker_id: str) -> dict[str, Any]:
        for view in self.worker_views():
            if view["id"] == worker_id:
                return view
        raise ServerProcessError(f"no worker {worker_id!r} in the fleet registry")

    def resolve(self, project: str) -> str:
        """The worker id the ring assigns ``project`` to."""
        return self.get(f"/fleet/resolve?project={project}")["worker"]

    def projects_on_distinct_workers(
        self, count: int = 2, *, prefix: str = "tenant", probes: int = 64
    ) -> dict[str, str]:
        """``{project: worker_id}`` for ``count`` differently-placed projects.

        Probes candidate names until the ring has spread them over ``count``
        distinct workers — the setup every routing/chaos test needs ("two
        projects landing on different workers").
        """
        placed: dict[str, str] = {}
        seen: set[str] = set()
        for i in range(probes):
            name = f"{prefix}_{i:02d}"
            owner = self.resolve(name)
            if owner not in seen:
                seen.add(owner)
                placed[name] = owner
                if len(placed) == count:
                    return placed
        raise ServerProcessError(
            f"could not find {count} projects on distinct workers in {probes} probes"
        )

    # -------------------------------------------------------------- killing
    def kill_worker9(self, worker_id: str) -> int:
        """SIGKILL one *worker* process (not the supervisor); returns its pid."""
        view = self.worker_view(worker_id)
        pid = view.get("pid")
        if not pid:
            raise ServerProcessError(f"worker {worker_id!r} has no registered pid")
        os.kill(int(pid), signal.SIGKILL)
        return int(pid)

    def wait_worker_recovered(
        self, worker_id: str, old_pid: int, *, timeout: float = 60.0
    ) -> float:
        """Seconds until the supervisor respawned + re-registered the worker."""
        start = time.monotonic()
        deadline = start + timeout
        while time.monotonic() < deadline:
            try:
                view = self.worker_view(worker_id)
                if (
                    view["registered"]
                    and view["alive"]
                    and view.get("pid") not in (None, old_pid)
                ):
                    return time.monotonic() - start
            except (OSError, TransportError, ServerProcessError):
                pass
            time.sleep(0.05)
        raise ServerProcessError(
            f"worker {worker_id!r} (old pid {old_pid}) not recovered within {timeout}s"
        )
