"""The chaos soak: mixed service traffic under continuous injected faults.

:class:`ChaosSoak` is the engine behind ``benchmarks/bench_t13_chaos_soak.py``
and the tier-1 mini-soak.  One run is ``cycles`` rounds of:

1. **Storm** — ingest threads POST scenario-zoo batches (agent-session
   traces plus multi-project fan-out), each under its own
   ``Idempotency-Key``, through a :class:`FlorService` whose shards are
   built over fault-wrapped stores (``database is locked`` contention,
   slow I/O), while a sealer thread runs :meth:`AckLedger.seal` (a
   ``dataframe`` barrier read, then every unsealed batch resent under its
   key) and reader threads issue ad-hoc SQL, and an embedded
   :class:`~repro.jobs.JobRunner` drains hindsight-backfill jobs on a lease
   clock skewed by the same plan.  A batch whose POST failed is owed like
   any other: the next seal resends it under its key, and it lands once.
2. **Recover** — the service closes and a fresh one reopens over the same
   root; the wall-clock cost of that transition is the measured recovery
   time.
3. **Verify** — every invariant checker runs against the recovered state:
   each sent value stored exactly once, monotone ``logs.seq`` watermarks,
   zero double-replayed job versions, recovery within the scenario bound.

Everything nondeterministic flows from one :class:`FaultPlan`, so a red
soak is replayed by exporting the seed its failure printed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..jobs import JOBS_DB_FILENAME, JobRunner, JobStore, pool_session_provider
from ..relational.database import Database
from ..service import FlorService
from ..webapp.framework import TestClient
from ..workloads import BackfillJobWorkload
from ..workloads.scenarios import AgentSessionWorkload, MultiProjectFanoutWorkload
from .chaos import FaultPlan, SkewedClock
from .invariants import (
    AckLedger,
    check_monotone_watermark,
    check_no_lost_rows,
    check_recovery_time,
    check_single_replay,
    logs_watermark,
)

#: Names an agent-session tenant logs (the dataframe barrier reads these).
AGENT_NAMES = "tokens_in,tokens_out,tool,tool_latency,tool_status,eval_score"

#: Seal rounds that settle a tenant once faults are suspended: one lands
#: what a storm lost, the next proves it.
SETTLE_ROUNDS = 4


def chaos_shard_factory(root: Path | str, plan: FaultPlan):
    """A ``DatabasePool.shard_factory`` building fault-wrapped shards.

    Builds only the session — over stores that thread ``plan`` through both
    storage seams: the relational store may stall or raise ``database is
    locked`` (absorbed by the background flusher's retry loop or surfaced
    to the client as a failed request), and the blob store may stall.  The
    pool applies its hand-off policy, hooks and metrics to the returned
    shard exactly as it does to its own.  Each tenant gets its own fault
    sites, so per-tenant schedules are independent of pool churn.
    """
    from ..config import ProjectConfig
    from ..core.session import Session
    from ..service.pool import SERVICE_FILENAME, ProjectShard
    from ..storage.faults import FaultyBlobStore, FaultyRelationalStore
    from ..versioning.objects import ObjectStore
    from ..versioning.repository import Repository

    root = Path(root)

    def factory(name: str) -> ProjectShard:
        config = ProjectConfig(root / name, name).ensure_layout()
        db = FaultyRelationalStore(
            Database(config.db_path), plan, site=f"shard.{name}.db"
        )
        blob_store = FaultyBlobStore(
            ObjectStore(config.objects_dir), plan, site=f"shard.{name}.blob"
        )
        repository = Repository(config.objects_dir, config.root, store=blob_store)
        session = Session(
            config, db=db, repository=repository, default_filename=SERVICE_FILENAME
        )
        return ProjectShard(name, session)

    return factory


@dataclass
class SoakReport:
    """What one chaos soak did, and whether the invariants held."""

    seed: int
    cycles: int = 0
    requests: int = 0
    request_errors: int = 0
    resubmitted_batches: int = 0
    sealed_rows: int = 0
    backfills_succeeded: int = 0
    recovery_seconds: list[float] = field(default_factory=list)
    fault_stats: dict[str, Any] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: First few request failures, with context — so a red soak names the
    #: error instead of just counting it.
    error_samples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_recovery_seconds(self) -> float:
        return max(self.recovery_seconds, default=0.0)

    def as_rows(self) -> list[dict[str, Any]]:
        """Benchmark-table rows (one line per cycle plus a summary)."""
        fired = self.fault_stats.get("fired", {})
        return [
            {
                "seed": self.seed,
                "cycles": self.cycles,
                "requests": self.requests,
                "errors": self.request_errors,
                "resubmitted": self.resubmitted_batches,
                "sealed_rows": self.sealed_rows,
                "locked": fired.get("locked", 0),
                "slow": fired.get("slow", 0),
                "skew": fired.get("skew", 0),
                "max_recovery_s": self.max_recovery_seconds,
                "violations": len(self.violations),
            }
        ]


class ChaosSoak:
    """Drive mixed scenario-zoo traffic under one fault plan; see module doc."""

    def __init__(
        self,
        root: Path | str,
        plan: FaultPlan,
        *,
        cycles: int = 2,
        cycle_seconds: float = 1.0,
        agent_tenants: int = 2,
        fanout_tenants: int = 3,
        ingest_threads: int = 2,
        query_threads: int = 1,
        backfill: bool = True,
        pool_capacity: int = 4,
        flush_size: int = 32,
        flush_interval: float | None = 0.05,
        recovery_bound_seconds: float = 20.0,
    ):
        self.root = Path(root)
        self.plan = plan
        self.cycles = cycles
        self.cycle_seconds = cycle_seconds
        self.agent_projects = [f"agent_{i:02d}" for i in range(agent_tenants)]
        self.fanout = MultiProjectFanoutWorkload(
            tenants=fanout_tenants, batches_per_tenant=10**9, records_per_batch=6
        )
        self.ingest_threads = ingest_threads
        self.query_threads = query_threads
        self.backfill = backfill
        self.pool_capacity = pool_capacity
        self.flush_size = flush_size
        self.flush_interval = flush_interval
        self.recovery_bound_seconds = recovery_bound_seconds
        self.ledger = AckLedger()
        self.report = SoakReport(seed=plan.seed)
        self._watermarks: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- plumbing
    def _note_error(self, context: str) -> None:
        """Count a failed request, keeping the first few with context."""
        with self._lock:
            self.report.request_errors += 1
            if len(self.report.error_samples) < 10:
                self.report.error_samples.append(context)

    def _all_projects(self) -> list[str]:
        return self.agent_projects + self.fanout.project_names()

    def _barrier_names(self, project: str) -> str:
        return AGENT_NAMES if project in self.agent_projects else self.fanout.value_name

    def _open_service(self) -> tuple[FlorService, JobStore]:
        store = JobStore.open(
            self.root, clock=SkewedClock(self.plan, site="jobs.clock")
        )
        service = FlorService(
            self.root,
            pool_capacity=self.pool_capacity,
            flush_size=self.flush_size,
            flush_interval=self.flush_interval,
            shard_factory=chaos_shard_factory(self.root, self.plan),
            job_store=store,
        )
        return service, store

    def _post_batch(self, client: TestClient, project: str, payload: dict) -> None:
        """Send one batch under a fresh key; the ledger owes it either way."""
        with self._lock:
            self.report.requests += 1
        try:
            response = self.ledger.post(client, project, payload)
            detail = "" if response.ok else f"status {response.status}: {response.text[:200]}"
        except Exception as exc:
            detail = repr(exc)
        if detail:
            self._note_error(f"post {project}: {detail}")

    def _seal(self, client: TestClient, project: str, rounds: int = 1) -> int:
        """:meth:`AckLedger.seal` with a ``dataframe`` barrier, ``rounds`` times at
        most; returns how many batches stay unsealed.  Each batch a round
        stages again counts as resubmitted."""
        barrier = f"/projects/{project}/dataframe?names={self._barrier_names(project)}"
        left = 0
        for _ in range(rounds):
            left = self.ledger.seal(client, project, barrier)
            with self._lock:
                self.report.resubmitted_batches += left
            if not left:
                break
        return left

    # -------------------------------------------------------------- traffic
    def _storm(self, service: FlorService, store: JobStore, cycle: int) -> None:
        client = TestClient(service.app())
        stop = threading.Event()
        threads: list[threading.Thread] = []

        def agent_ingest(worker: int) -> None:
            workload = AgentSessionWorkload(
                sessions=10**6,
                turns_per_session=4,
                seed=self.plan.seed + cycle * 101 + worker,
                tag=f"c{cycle}.w{worker}",
            )
            payloads = workload.request_payloads()
            turn = 0
            while not stop.is_set():
                project = self.agent_projects[turn % len(self.agent_projects)]
                self._post_batch(client, project, next(payloads))
                turn += 1

        def fanout_ingest() -> None:
            fanout = MultiProjectFanoutWorkload(
                tenants=len(self.fanout.project_names()),
                batches_per_tenant=10**9,
                records_per_batch=self.fanout.records_per_batch,
                tag=f"{self.fanout.tag}.c{cycle}",
            )
            # Same tenant directories every cycle; per-cycle tag keeps
            # values globally unique for the ledger's set membership.
            fanout_names = self.fanout.project_names()
            for (_, payload), project in zip(
                fanout.request_payloads(),
                (fanout_names[i % len(fanout_names)] for i in range(10**9)),
            ):
                if stop.is_set():
                    return
                self._post_batch(client, project, payload)

        def sealer() -> None:
            index = 0
            projects = self._all_projects()
            while not stop.is_set():
                self._seal(client, projects[index % len(projects)])
                index += 1
                time.sleep(0.01)

        def querier() -> None:
            projects = self._all_projects()
            index = 0
            while not stop.is_set():
                project = projects[index % len(projects)]
                try:
                    client.get(
                        f"/projects/{project}/sql?q=SELECT COUNT(*) FROM logs"
                    )
                    client.get(f"/projects/{project}/stats")
                except Exception as exc:
                    self._note_error(f"query {project}: {exc!r}")
                index += 1
                time.sleep(0.005)

        for worker in range(self.ingest_threads):
            threads.append(threading.Thread(target=agent_ingest, args=(worker,)))
        threads.append(threading.Thread(target=fanout_ingest))
        threads.append(threading.Thread(target=sealer))
        for _ in range(self.query_threads):
            threads.append(threading.Thread(target=querier))

        runner = None
        backfill_job_id = None
        if self.backfill:
            runner = JobRunner(
                store,
                pool_session_provider(service.pool),
                workers=1,
                poll_interval=0.01,
                name=f"soak-c{cycle}",
            ).start()
            workload = self._backfill_workload()
            try:
                body = client.post(
                    f"/projects/{workload.project_names()[0]}/jobs/backfill",
                    json_body={
                        "filename": workload.filename,
                        "new_source": workload.hindsight_source(),
                    },
                ).json()
                backfill_job_id = body["job"]["id"]
            except Exception as exc:
                self._note_error(f"backfill submit: {exc!r}")

        for thread in threads:
            thread.start()
        time.sleep(self.cycle_seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)

        # Quiesce under suspended faults: finish the backfill (operator
        # retries are fair game for fault-failed attempts), then run one
        # final sealing barrier per tenant so the cycle ends with a known
        # sealed frontier.
        with self.plan.suspended():
            if runner is not None:
                for _ in range(3):
                    runner.run_until_idle(timeout=60.0)
                    failed = [
                        job.id
                        for job in store.list_jobs(state="failed")
                        if job.id == backfill_job_id
                    ]
                    if not failed:
                        break
                    for job_id in failed:
                        store.retry(job_id)
                runner.stop()
                if backfill_job_id is not None:
                    job = store.get(backfill_job_id)
                    if job is not None and job.state == "succeeded":
                        self.report.backfills_succeeded += 1
            for project in self._all_projects():
                # A flusher error recorded during the storm surfaces on the
                # first post-storm drain and clears: settle past it, so the
                # cycle ends with every owed batch sealed.
                self._seal(client, project, SETTLE_ROUNDS)
            for project in self._all_projects():
                shard = service.pool.get(project)
                self._watermarks[project] = logs_watermark(shard.session.db)

    def _backfill_workload(self) -> BackfillJobWorkload:
        return BackfillJobWorkload(projects=1, versions=2, epochs=2, steps=1)

    @staticmethod
    def _close_service(service: FlorService) -> None:
        """Close, absorbing one round of residual flusher errors.

        A write fault injected near the end of a storm can leave a recorded
        error that surfaces (and clears) on the close-time drain; the rows
        it covered were never sealed, so retrying the close loses nothing.
        """
        for attempt in range(3):
            try:
                service.close()
                return
            except Exception:
                if attempt == 2:
                    raise

    # ------------------------------------------------------------------ run
    def run(self) -> SoakReport:
        if self.backfill:
            with self.plan.suspended():
                self._backfill_workload().populate(self.root)

        service, store = self._open_service()
        try:
            for cycle in range(self.cycles):
                self._storm(service, store, cycle)
                # Recovery: close the whole service and reopen over the
                # same root.  Faults stay suspended so the measured cost is
                # the system's, not the schedule's.
                with self.plan.suspended():
                    started = time.perf_counter()
                    self._close_service(service)
                    store.close()
                    service, store = self._open_service()
                    client = TestClient(service.app())
                    for project in self._all_projects():
                        self._seal(client, project, SETTLE_ROUNDS)
                    elapsed = time.perf_counter() - started
                    self.report.recovery_seconds.append(elapsed)
                    self.report.cycles += 1
                    self._verify(service, label=f"cycle{cycle}", recovery=elapsed)
        finally:
            self._close_service(service)
            store.close()
        self.report.sealed_rows = self.ledger.counts()["sealed_rows"]
        self.report.fault_stats = self.plan.stats()
        return self.report

    def _verify(self, service: FlorService, *, label: str, recovery: float) -> None:
        violations: list[str] = []
        for project in self._all_projects():
            shard = service.pool.get(project)
            shard.flush()
            db = shard.session.db
            violations += check_no_lost_rows(db, self.ledger, project)
            after = logs_watermark(db)
            violations += check_monotone_watermark(
                f"{label}/{project}", self._watermarks.get(project, 0), after
            )
        jobs_path = self.root / JOBS_DB_FILENAME
        if jobs_path.exists():
            jobs_db = Database(jobs_path)
            try:
                violations += check_single_replay(jobs_db)
            finally:
                jobs_db.close()
        violations += check_recovery_time(
            label, recovery, self.recovery_bound_seconds
        )
        self.report.violations.extend(violations)
