"""Job execution: one claimed job → per-version replay with checkpoints.

:func:`execute_job` bridges the durable queue and the
:class:`~repro.core.hindsight.HindsightEngine`, and owns supervision and
checkpoints only.  Which recorded runs a job replays, how they execute and
how their rows land is the engine's decision: the executor takes the distinct
version ids of the engine's plan, subtracts those already checkpointed in
``job_events`` (a job resumed after a crash, a graceful shutdown or a retry
replays only what is missing), and hands the engine one version at a time —
every recorded run of it, one transaction:

* each completed version appends its one ``version`` event — the progress
  checkpoint — before the next one starts, so progress is durable at
  version granularity;
* the lease is renewed between versions (the runner also renews it from a
  background heartbeat for versions that outlive one lease), and the renewal
  doubles as the cancellation poll;
* sessions are checked out per version, so a multi-minute backfill never
  pins a tenant's shard lock — HTTP reads and writes interleave.

Kinds: ``backfill`` propagates the payload's ``new_source`` (default: the
project's working copy of ``filename``) into each run's historical source and
replays it (``HindsightEngine.backfill``); ``replay`` re-executes each run's
*recorded* source as-is, e.g. to regenerate records under a differential plan
(``HindsightEngine.replay``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, ContextManager

from ..core.hindsight import BackfillReport, HindsightEngine
from ..core.replay import ReplayPlan
from ..errors import JobError
from ..relational.records import JobRecord
from .store import JobStore

KIND_BACKFILL = "backfill"
KIND_REPLAY = "replay"
JOB_KINDS = (KIND_BACKFILL, KIND_REPLAY)

#: ``open_session(project)`` → context manager yielding a Session bound to
#: that project.  The runner adapts a DatabasePool checkout to this shape.
SessionProvider = Callable[[str], ContextManager[Any]]


class JobCancelled(JobError):
    """The job observed ``cancel_requested`` and stopped at a version boundary."""


class JobInterrupted(JobError):
    """The worker is shutting down; the job should be released, not failed."""


class JobLeaseLost(JobError):
    """The lease was reclaimed mid-run (worker presumed dead, then outlived)."""


class JobExecutionError(JobError):
    """One or more versions failed to replay; the job is eligible for retry."""


def execute_job(
    job: JobRecord,
    store: JobStore,
    open_session: SessionProvider,
    *,
    worker: str,
    lease_seconds: float | None = None,
    should_stop: Callable[[], bool] | None = None,
    should_cancel: Callable[[], bool] | None = None,
) -> dict[str, Any]:
    """Run one claimed backfill/replay job to completion; returns the summary.

    Raises :class:`JobCancelled` / :class:`JobInterrupted` /
    :class:`JobLeaseLost` for the supervision outcomes and
    :class:`JobExecutionError` when version replays failed — the runner maps
    each onto the matching store transition.
    """
    if job.kind not in JOB_KINDS:
        raise JobError(f"unknown job kind: {job.kind!r}")
    payload = job.payload
    filename = payload.get("filename")
    if not filename:
        raise JobError("job payload needs a 'filename'")
    include_latest = bool(payload.get("include_latest", True))
    plan = ReplayPlan.from_dict(payload.get("plan"))
    new_source = payload.get("new_source")
    started = time.perf_counter()

    def supervise() -> None:
        """Version-boundary check: renew the lease, honor cancel/stop signals."""
        if should_stop is not None and should_stop():
            raise JobInterrupted("worker shutting down")
        if should_cancel is not None and should_cancel():
            raise JobCancelled(f"job {job.id} cancelled")
        fresh = store.heartbeat(job.id, worker, lease_seconds=lease_seconds)
        if fresh is None:
            raise JobLeaseLost(f"job {job.id}: lease no longer owned by {worker!r}")
        if fresh.cancel_requested:
            raise JobCancelled(f"job {job.id} cancelled")

    # Inventory, one short checkout: the engine's plan and the source to propagate.
    with open_session(job.project) as session:
        engine = HindsightEngine(session)
        vids = engine.plan_versions(filename, payload.get("versions") or None, include_latest)
        if job.kind == KIND_BACKFILL and new_source is None:
            new_source = engine.working_source(filename)
    done = store.completed_versions(job.id)
    remaining = [vid for vid in vids if vid not in done]
    summary: dict[str, Any] = {
        "kind": job.kind,
        "filename": filename,
        "versions_total": len(vids),
        "versions_checkpointed": len(vids) - len(remaining),
        "versions_replayed": 0,
        "versions_failed": 0,
        "new_records": 0,
    }

    for vid in remaining:
        supervise()
        with open_session(job.project) as session:
            engine = HindsightEngine(session)
            scope = {"versions": [vid], "plan": plan, "include_latest": include_latest}
            if job.kind == KIND_BACKFILL:
                report = engine.backfill(filename, new_source, **scope)
            else:
                report = engine.replay(filename, **scope)
        event = _version_event(vid, report)
        if event["ok"]:
            # The durable resume point, written after the engine's transaction.
            store.checkpoint_version(job.id, vid, detail=event)
            summary["versions_replayed"] += 1
            summary["new_records"] += event["new_records"]
        else:
            store.record_event(job.id, "version", event)
            summary["versions_failed"] += 1

    summary["wall_seconds"] = round(time.perf_counter() - started, 6)
    if summary["versions_failed"]:
        raise JobExecutionError(
            f"{summary['versions_failed']} of {summary['versions_total']} version(s)"
            f" failed to replay for {filename!r}"
        )
    return summary


def _version_event(vid: str, report: BackfillReport) -> dict[str, Any]:
    """The ``version`` event of one version: every recorded run of it, summed."""
    runs = report.versions  # never empty: the vid came from the engine's plan
    errors = [run.error or (run.replay and run.replay.error) for run in runs]
    return {
        "vid": vid,
        "tstamp": runs[0].tstamp,
        "runs": len(runs),
        "ok": all(run.ok for run in runs),
        "injected_statements": runs[0].injected_statements,
        "skipped_statements": runs[0].skipped_statements,
        "new_records": report.new_records,
        "iterations_executed": report.iterations_executed,
        "iterations_skipped": report.iterations_skipped,
        "error": next((error for error in errors if error), None),
    }
