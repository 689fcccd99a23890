"""The worker pool that drains the durable job queue.

A :class:`JobRunner` owns N worker threads polling one :class:`JobStore`.
Each worker claims a job (CAS + lease), marks it running, and hands it to
:func:`~repro.jobs.executor.execute_job`; the outcome maps back onto the
store's state machine:

=====================  ==========================================
executor outcome        store transition
=====================  ==========================================
returns summary         ``finish``  → ``succeeded``
JobCancelled            ``mark_cancelled`` → ``cancelled``
JobInterrupted          ``release`` → ``queued`` (attempt refunded)
JobLeaseLost            none (another worker owns the job now)
any other exception     ``fail`` → ``queued`` w/ backoff, or ``failed``
=====================  ==========================================

A background heartbeat thread renews the lease of every in-flight job at a
fraction of the lease duration — so a version replay that outlives one lease
does not get reclaimed out from under a healthy worker — and propagates
``cancel_requested`` flags to the executing thread between heartbeats.

Sessions come from a pluggable provider: ``repro serve`` passes a closure
over its sharded :class:`~repro.service.pool.DatabasePool` (each version
replay holds the shard lock only for its own duration), while tests and the
CLI drain mode can pass any ``project → Session`` context manager.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from ..config import FLOR_DIR_NAME, ProjectConfig
from ..core.session import Session
from ..errors import JobError
from ..obs.metrics import StatsView
from .executor import (
    JobCancelled,
    JobInterrupted,
    JobLeaseLost,
    SessionProvider,
    execute_job,
)
from .store import JobStore


#: ``JobRunner.stats`` field → telemetry counter (what this runner's
#: workers did; the store's ``jobs.*`` counters are the queue's transitions).
_STATS = {
    field: f"runner.{field}"
    for field in (
        "claims",
        "succeeded",
        "failed",
        "retried",
        "cancelled",
        "released",
        "lease_lost",
    )
}


def pool_session_provider(pool) -> SessionProvider:
    """Adapt a :class:`~repro.service.pool.DatabasePool` to the executor.

    Checkout scope = one version replay, so job execution interleaves with
    HTTP traffic on the same shard instead of starving it.
    """

    @contextmanager
    def open_session(project: str) -> Iterator[Session]:
        with pool.checkout(project) as shard:
            shard.flush()
            yield shard.session

    return open_session


def directory_session_provider(root: Path | str) -> SessionProvider:
    """Open a throwaway session per call for ``<root>/<project>`` (CLI drain).

    Unknown tenants are an error, not a birth: opening a session would
    materialize ``<root>/<project>/.flor`` on disk, so a job submitted with
    a typo'd project name would otherwise run to ``succeeded`` as a silent
    no-op over a freshly created empty project.
    """

    @contextmanager
    def open_session(project: str) -> Iterator[Session]:
        home = Path(root) / project / FLOR_DIR_NAME
        if not home.is_dir():
            raise JobError(f"unknown project {project!r}: no {home} on disk")
        config = ProjectConfig(Path(root) / project, project)
        with Session(config) as session:
            yield session

    return open_session


class JobRunner:
    """N worker threads + one heartbeat thread over a shared job store."""

    def __init__(
        self,
        store: JobStore,
        open_session: SessionProvider,
        *,
        workers: int = 1,
        poll_interval: float = 0.05,
        lease_seconds: float | None = None,
        heartbeat_interval: float | None = None,
        name: str | None = None,
        fair_share: int | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        if fair_share is not None:
            # The runner owns scheduling policy for its store: how often a
            # claim ignores priority for the FIFO head (0 = strict priority).
            if fair_share < 0:
                raise ValueError(f"fair_share must be >= 0, got {fair_share}")
            store.fair_share = fair_share
        self.open_session = open_session
        self.workers = workers
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds if lease_seconds is not None else store.lease_seconds
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else max(self.lease_seconds / 3.0, 0.01)
        )
        self.name = name or f"jobs-{os.getpid()}"
        #: A scope of the store's registry: per-runner counts here, the
        #: ``jobs.active`` gauge wherever the store's scope leads.
        self.metrics = store.metrics.scope()
        self.stats = StatsView(self.metrics, _STATS)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._heartbeat_thread: threading.Thread | None = None
        #: job_id → (worker_id, cancel_event) for in-flight jobs.
        self._active: dict[int, tuple[str, threading.Event]] = {}

    # -------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    def active_jobs(self) -> list[int]:
        with self._lock:
            return sorted(self._active)

    def start(self) -> "JobRunner":
        """Spawn the worker and heartbeat threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(f"{self.name}-w{i}",),
                name=f"{self.name}-w{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name=f"{self.name}-hb", daemon=True
        )
        self._heartbeat_thread.start()
        return self

    def stop(self, *, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Drain gracefully: in-flight jobs stop at their next version
        boundary and are *released* back to the queue (progress checkpoints
        make the hand-off cheap); no new jobs are claimed."""
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(timeout=timeout)
        self._threads = []
        self._heartbeat_thread = None

    def run_until_idle(self, *, timeout: float = 120.0) -> bool:
        """Process jobs until none are queued or in flight; True on success.

        Starts the runner if needed and, when it did the starting, stops it
        again before returning — the drain shape used by ``repro jobs run``
        and the T11 benchmark.
        """
        started_here = not self._threads
        if started_here:
            self.start()
        deadline = time.monotonic() + timeout
        idle = False
        try:
            while time.monotonic() < deadline:
                counts = self.store.counts()
                if counts["queued"] + counts["leased"] + counts["running"] == 0:
                    idle = True
                    break
                time.sleep(self.poll_interval)
        finally:
            if started_here:
                self.stop(wait=True)
        return idle

    # ------------------------------------------------------------ worker loop
    def _worker_loop(self, worker_id: str) -> None:
        while not self._stop.is_set():
            job = self.store.claim(worker_id, lease_seconds=self.lease_seconds)
            if job is None:
                self._stop.wait(self.poll_interval)
                continue
            self.stats["claims"].inc()
            with self._lock:
                cancel_event = threading.Event()
                self._active[job.id] = (worker_id, cancel_event)
                self.metrics.set("jobs.active", len(self._active))
            try:
                self._execute(job, worker_id, cancel_event)
            finally:
                with self._lock:
                    self._active.pop(job.id, None)
                    self.metrics.set("jobs.active", len(self._active))

    def _execute(self, job, worker_id: str, cancel_event: threading.Event) -> None:
        if job.cancel_requested:
            self.store.mark_cancelled(job.id, worker_id)
            self.stats["cancelled"].inc()
            return
        if not self.store.mark_running(job.id, worker_id):
            self.stats["lease_lost"].inc()
            return
        try:
            summary = execute_job(
                job,
                self.store,
                self.open_session,
                worker=worker_id,
                lease_seconds=self.lease_seconds,
                should_stop=self._stop.is_set,
                should_cancel=cancel_event.is_set,
            )
        except JobCancelled:
            self.store.mark_cancelled(job.id, worker_id)
            self.stats["cancelled"].inc()
        except JobInterrupted as exc:
            self.store.release(job.id, worker_id, reason=str(exc) or "shutdown")
            self.stats["released"].inc()
        except JobLeaseLost:
            self.stats["lease_lost"].inc()
        except Exception as exc:  # noqa: BLE001 - worker errors become job state
            after = self.store.fail(job.id, worker_id, f"{type(exc).__name__}: {exc}")
            retried = after is not None and after.state == "queued"
            self.stats["retried" if retried else "failed"].inc()
        else:
            self.store.finish(job.id, worker_id, summary)
            self.stats["succeeded"].inc()

    # -------------------------------------------------------------- heartbeat
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._lock:
                active = list(self._active.items())
            for job_id, (worker_id, cancel_event) in active:
                try:
                    fresh = self.store.heartbeat(
                        job_id, worker_id, lease_seconds=self.lease_seconds
                    )
                except Exception:  # noqa: BLE001 - a failed beat must not kill the loop
                    continue
                if fresh is not None and fresh.cancel_requested:
                    cancel_event.set()
