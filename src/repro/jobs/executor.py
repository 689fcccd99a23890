"""Job execution: one claimed job → per-version replay with checkpoints.

:func:`execute_job` is the bridge between the durable queue and the
hindsight engine.  It resolves the job's payload into a version work-list,
subtracts the versions already checkpointed in ``job_events`` (so a resumed
job — after a crash, a graceful shutdown, or a retry — replays only what is
missing), and then replays one version at a time:

* each completed version appends a ``version`` event *and* a progress
  checkpoint before the next one starts, so progress is durable at version
  granularity;
* the lease is renewed between versions (the runner also renews it from a
  background heartbeat for versions that outlive one lease), and the renewal
  doubles as the cancellation poll;
* sessions are checked out per version, so a multi-minute backfill never
  pins a tenant's shard lock for its whole duration — HTTP reads and writes
  interleave between versions.

Job kinds
---------
``backfill``
    Propagate the payload's ``new_source`` (default: the project's working
    copy of ``filename``) into each historical version and replay it —
    the :class:`~repro.core.hindsight.HindsightEngine` path.
``replay``
    Re-execute each historical version's *recorded* source as-is (no
    propagation), e.g. to regenerate records under a differential plan.
"""

from __future__ import annotations

import time
from typing import Any, Callable, ContextManager

from ..core.hindsight import HindsightEngine
from ..core.replay import ReplayPlan, replay_source
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
    plan = ReplayPlan.from_dict(payload.get("plan"))
    started = time.perf_counter()

    # Inventory pass: resolve the version work-list and the source to
    # propagate.  One short checkout; replays check out per version.
    with open_session(job.project) as session:
        engine = HindsightEngine(session)
        epochs = engine.version_epochs(filename)
        # One epoch per commit, but not one *version* per commit: a no-op
        # commit (content unchanged) maps a fresh epoch to its parent's
        # vid.  Replay per distinct vid — per-epoch replay would run the
        # same version repeatedly and break the checkpoint protocol's
        # exactly-once guarantee (each vid earns exactly one ``version``
        # event, which resumed jobs rely on to skip completed work).
        seen_vids: set[str] = set()
        epochs = [
            (vid, ts)
            for vid, ts in epochs
            if not (vid in seen_vids or seen_vids.add(vid))
        ]
        if payload.get("versions"):
            wanted = {str(v) for v in payload["versions"]}
            epochs = [(vid, ts) for vid, ts in epochs if vid in wanted]
        if not payload.get("include_latest", True) and epochs:
            epochs = epochs[:-1]
        new_source = None
        if job.kind == KIND_BACKFILL:
            new_source = payload.get("new_source")
            if new_source is None:
                path = session.config.root / filename
                if not path.exists():
                    raise JobError(
                        f"no working-copy source for {filename!r} in project"
                        f" {job.project!r}; submit the job with 'new_source'"
                    )
                new_source = path.read_text()

    done = store.completed_versions(job.id)
    remaining = [(vid, ts) for vid, ts in epochs if vid not in done]
    summary: dict[str, Any] = {
        "kind": job.kind,
        "filename": filename,
        "versions_total": len(epochs),
        "versions_checkpointed": len(epochs) - len(remaining),
        "versions_replayed": 0,
        "versions_failed": 0,
        "new_records": 0,
    }

    for vid, tstamp in remaining:
        _supervise(store, job, worker, lease_seconds, should_stop, should_cancel)
        with open_session(job.project) as session:
            entry = _replay_version(session, job, vid, tstamp, filename, new_source, plan)
        event = {
            "vid": vid,
            "tstamp": tstamp,
            "ok": entry["ok"],
            **{k: v for k, v in entry.items() if k not in ("ok",)},
        }
        if entry["ok"]:
            # The checkpoint is the durable resume point: written only after
            # the version's records are durable (the backfill's one
            # transaction, or the replay session's flush).
            store.checkpoint_version(job.id, vid, detail=event)
            summary["versions_replayed"] += 1
            summary["new_records"] += int(entry.get("new_records") or 0)
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


def _supervise(
    store: JobStore,
    job: JobRecord,
    worker: str,
    lease_seconds: float | None,
    should_stop: Callable[[], bool] | None,
    should_cancel: Callable[[], bool] | None,
) -> None:
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


def _replay_version(
    session: Any,
    job: JobRecord,
    vid: str,
    tstamp: str,
    filename: str,
    new_source: str | None,
    plan: ReplayPlan,
) -> dict[str, Any]:
    """Replay one version under ``session``; returns the event payload fields."""
    if job.kind == KIND_BACKFILL:
        engine = HindsightEngine(session)
        report = engine.backfill(
            filename, new_source=new_source, versions=[vid], plan=plan
        )
        if not report.versions:
            return {"ok": False, "error": f"version {vid} no longer contains {filename!r}"}
        entry = report.versions[0]
        replay = entry.replay
        return {
            "ok": entry.ok,
            "injected_statements": entry.injected_statements,
            "skipped_statements": entry.skipped_statements,
            "new_records": replay.new_log_records if replay else 0,
            "iterations_executed": replay.iterations_executed if replay else 0,
            "iterations_skipped": replay.iterations_skipped if replay else 0,
            "error": entry.error or (replay.error if replay else None),
        }
    # KIND_REPLAY: run the recorded source as-is under the version's tstamp.
    engine = HindsightEngine(session)
    source = engine.historical_source(vid, filename)
    result = replay_source(
        source,
        config=session.config,
        filename=filename,
        tstamp=tstamp,
        db=session.db,
        repository=session.repository,
        plan=plan,
    )
    return {
        "ok": result.ok,
        "injected_statements": 0,
        "skipped_statements": 0,
        "new_records": result.new_log_records,
        "iterations_executed": result.iterations_executed,
        "iterations_skipped": result.iterations_skipped,
        "error": result.error,
    }
