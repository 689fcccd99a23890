"""Durable, SQLite-backed job queue.

The :class:`JobStore` owns the ``jobs`` and ``job_events`` tables (created by
the relational layer's schema) and implements the queue semantics the service
relies on:

* **Submission** — a job is a row: project, kind (``backfill``/``replay``),
  a JSON payload, a priority and a retry budget.  Submitting is durable; the
  HTTP request that carried it can return immediately.
* **Claiming** — workers claim with a compare-and-swap (``UPDATE ... WHERE
  state = 'queued'`` inside one transaction), so two workers — even in two
  *processes* sharing the database file — never own the same job.  Claiming
  orders by priority (higher first), then FIFO — except that every
  ``fair_share``-th claim takes the global FIFO head regardless of
  priority, so low-priority tenants make progress without ever starving
  high-priority work (the QoS scheduling contract; see :mod:`repro.qos`).
* **Lease + heartbeat** — a claimed job carries ``lease_owner`` and
  ``lease_expires``; the runner renews the lease while the job executes.  A
  worker that dies stops renewing, and the next :meth:`claim` reclaims the
  expired lease: the job returns to ``queued`` (or ``failed`` once its
  attempt budget is exhausted).  Combined with per-version progress
  checkpoints (:meth:`checkpoint_version`), a resumed backfill replays only
  the versions the dead worker had not finished.
* **Bounded retries with backoff** — ``attempts`` counts executions started;
  a failed execution re-queues with exponentially growing ``not_before``
  until ``max_attempts`` is reached.
* **Cancellation** — queued jobs cancel immediately; leased/running jobs get
  ``cancel_requested`` set and the executor stops at the next version
  boundary.

Every transition appends a ``job_events`` row, so ``GET /jobs/<id>/events``
(and ``repro jobs watch``) can show the full history of a job without the
worker being reachable.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from ..errors import JobError, JobNotFoundError
from ..obs.metrics import MetricsRegistry
from ..relational.database import Database
from ..storage.protocols import RelationalStore
from ..relational.records import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_LEASED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    JOB_SUCCEEDED,
    JobEventRecord,
    JobRecord,
)

#: Filename of the host-level jobs database under a service root.  The dot
#: prefix keeps it out of the tenant namespace (project names must start
#: with an alphanumeric character).
JOBS_DB_FILENAME = ".flor-jobs.db"

_JOB_COLUMNS_SQL = ", ".join(JobRecord.COLUMNS)

#: Event kinds written by the store itself (executors add 'version' etc.).
EVENT_SUBMITTED = "submitted"
EVENT_LEASED = "leased"
EVENT_RUNNING = "running"
EVENT_SUCCEEDED = "succeeded"
EVENT_FAILED = "failed"
EVENT_RETRY_SCHEDULED = "retry_scheduled"
EVENT_RECLAIMED = "lease_reclaimed"
EVENT_RELEASED = "released"
EVENT_CANCEL_REQUESTED = "cancel_requested"
EVENT_CANCELLED = "cancelled"
EVENT_RETRIED = "retried"
EVENT_VERSION = "version"


class JobStore:
    """Queue operations over one ``jobs``/``job_events`` table pair.

    Parameters
    ----------
    db:
        Database holding the tables.  A service host uses one dedicated
        jobs database per root (see :meth:`open`), shared by every tenant;
        job rows carry the tenant name in ``project``.
    lease_seconds:
        Default lease duration granted by :meth:`claim` and renewed by
        :meth:`heartbeat`.
    retry_backoff:
        Base of the exponential retry delay: attempt *n* re-queues with
        ``not_before = now + retry_backoff * 2**(n-1)``.
    fair_share:
        Weighted-fair claiming: every ``fair_share``-th claim through this
        store takes the *oldest* queued job regardless of priority, so a
        low-priority tenant's backlog drains at a bounded fraction of
        worker capacity instead of starving behind a hot high-priority
        tenant — while the other ``fair_share - 1`` claims still go to the
        highest priority first (high-priority work never starves either).
        ``0`` disables fairness (strict priority order, the pre-QoS
        behaviour).
    clock:
        Unix-time source, injectable so tests control lease expiry.
    """

    def __init__(
        self,
        db: RelationalStore,
        *,
        lease_seconds: float = 30.0,
        retry_backoff: float = 0.5,
        fair_share: int = 4,
        clock: Callable[[], float] = time.time,
    ):
        if lease_seconds <= 0:
            raise JobError(f"lease_seconds must be positive, got {lease_seconds}")
        if fair_share < 0:
            raise JobError(f"fair_share must be >= 0, got {fair_share}")
        self.db = db
        self.lease_seconds = lease_seconds
        self.retry_backoff = retry_backoff
        self.fair_share = fair_share
        self._claim_count = 0
        self._clock = clock
        self._owns_db = False
        #: The store's registry scope (the service attaches it to its own).
        self.metrics = MetricsRegistry()
        # Assigned post-construction by the service: called with a job id
        # *after* a transition's transaction commits, so a tail subscriber
        # woken by it can already read the new event row.
        self.on_event: Callable[[int], None] | None = None

    def _notify(self, job_id: int) -> None:
        """Post-commit event push; hook failures never fail the transition."""
        if self.on_event is not None:
            try:
                self.on_event(job_id)
            except Exception:  # noqa: BLE001 - observer, not participant
                pass

    def _note_queue_depth(self) -> None:
        row = self.db.query_one(
            "SELECT COUNT(*) FROM jobs WHERE state = ?", (JOB_QUEUED,)
        )
        self.metrics.set("jobs.queue_depth", int(row[0]) if row else 0)

    @classmethod
    def open(cls, root: Path | str, **kwargs: Any) -> "JobStore":
        """Open (creating if needed) the host-level jobs store under ``root``."""
        store = cls(Database(Path(root) / JOBS_DB_FILENAME), **kwargs)
        store._owns_db = True
        return store

    def close(self) -> None:
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def submit(
        self,
        project: str,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        priority: int = 0,
        max_attempts: int = 3,
    ) -> JobRecord:
        """Enqueue a job; returns the durable record (with its id)."""
        if max_attempts < 1:
            raise JobError(f"max_attempts must be >= 1, got {max_attempts}")
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "INSERT INTO jobs (project, kind, payload, state, priority,"
                " max_attempts, created_at, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    project,
                    kind,
                    json.dumps(payload or {}),
                    JOB_QUEUED,
                    priority,
                    max_attempts,
                    now,
                    now,
                ),
            )
            job_id = int(cursor.lastrowid)
            self._append_event(conn, job_id, EVENT_SUBMITTED, {"kind": kind, "project": project}, now)
        self.metrics.inc("jobs.submitted")
        self._note_queue_depth()
        self._notify(job_id)
        return self.require(job_id)

    # --------------------------------------------------------------- lookups
    def get(self, job_id: int) -> JobRecord | None:
        row = self.db.query_one(
            f"SELECT {_JOB_COLUMNS_SQL} FROM jobs WHERE id = ?", (job_id,)
        )
        return None if row is None else JobRecord.from_row(row)

    def require(self, job_id: int) -> JobRecord:
        job = self.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def list_jobs(
        self,
        *,
        project: str | None = None,
        state: str | None = None,
        limit: int = 50,
    ) -> list[JobRecord]:
        """Most recent jobs first, optionally filtered by project/state."""
        if state is not None and state not in JOB_STATES:
            raise JobError(f"unknown job state: {state!r}")
        clauses, params = [], []
        if project is not None:
            clauses.append("project = ?")
            params.append(project)
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self.db.query(
            f"SELECT {_JOB_COLUMNS_SQL} FROM jobs{where} ORDER BY id DESC LIMIT ?",
            (*params, int(limit)),
        )
        return [JobRecord.from_row(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Row count per state (states with no jobs included as 0)."""
        counts = {state: 0 for state in JOB_STATES}
        for state, n in self.db.query("SELECT state, COUNT(*) FROM jobs GROUP BY state"):
            if state in counts:
                counts[state] = int(n)
        return counts

    # ----------------------------------------------------------------- claim
    def claim(
        self, worker: str, *, lease_seconds: float | None = None
    ) -> JobRecord | None:
        """Atomically take ownership of the best queued job, if any.

        Expired leases are reclaimed first (inside the same transaction), so
        a runner polling ``claim`` doubles as the crash supervisor: a job
        whose worker died becomes claimable as soon as its lease lapses.

        Ordering is weighted-fair (see ``fair_share``): usually best
        priority first then FIFO, but every ``fair_share``-th claim takes
        the global FIFO head so low-priority work keeps a guaranteed
        fraction of throughput.
        """
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        now = self._clock()
        fair_turn = False
        if self.fair_share > 0:
            # A per-process counter is all fairness needs: each worker
            # process independently dedicates 1/fair_share of its claims to
            # the FIFO head, so the aggregate guarantee holds fleet-wide
            # without cross-process coordination.
            self._claim_count += 1
            fair_turn = self._claim_count % self.fair_share == 0
        order = "id ASC" if fair_turn else "priority DESC, id ASC"
        with self.db.transaction() as conn:
            self._reclaim_expired(conn, now)
            self._finish_cancelled_queued(conn, now)
            row = conn.execute(
                "SELECT id FROM jobs"
                " WHERE state = ? AND not_before <= ? AND cancel_requested = 0"
                f" ORDER BY {order} LIMIT 1",
                (JOB_QUEUED, now),
            ).fetchone()
            if row is None:
                return None
            job_id = int(row[0])
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, lease_owner = ?, lease_expires = ?,"
                " attempts = attempts + 1, updated_at = ?"
                " WHERE id = ? AND state = ?",
                (JOB_LEASED, worker, now + lease, now, job_id, JOB_QUEUED),
            )
            if cursor.rowcount != 1:  # pragma: no cover - CAS under the txn lock
                return None
            self._append_event(conn, job_id, EVENT_LEASED, {"worker": worker}, now)
        self.metrics.inc("jobs.claimed")
        self._note_queue_depth()
        self._notify(job_id)
        return self.require(job_id)

    def _reclaim_expired(self, conn, now: float) -> None:
        """Return expired-lease jobs to the queue (or fail them out of budget)."""
        rows = conn.execute(
            "SELECT id, attempts, max_attempts, lease_owner FROM jobs"
            " WHERE state IN (?, ?) AND lease_expires IS NOT NULL AND lease_expires < ?",
            (JOB_LEASED, JOB_RUNNING, now),
        ).fetchall()
        for job_id, attempts, max_attempts, owner in rows:
            detail = {"worker": owner, "attempts": int(attempts)}
            if int(attempts) >= int(max_attempts):
                conn.execute(
                    "UPDATE jobs SET state = ?, lease_owner = NULL, lease_expires = NULL,"
                    " error = ?, finished_at = ?, updated_at = ? WHERE id = ?",
                    (
                        JOB_FAILED,
                        f"lease expired after {attempts} attempt(s); worker {owner!r} presumed dead",
                        now,
                        now,
                        int(job_id),
                    ),
                )
                self._append_event(conn, int(job_id), EVENT_FAILED, {**detail, "reason": "lease_expired"}, now)
            else:
                conn.execute(
                    "UPDATE jobs SET state = ?, lease_owner = NULL, lease_expires = NULL,"
                    " updated_at = ? WHERE id = ?",
                    (JOB_QUEUED, now, int(job_id)),
                )
                self._append_event(conn, int(job_id), EVENT_RECLAIMED, detail, now)
                self.metrics.inc("jobs.lease_reclaims")

    def _finish_cancelled_queued(self, conn, now: float) -> None:
        """Transition queued rows with a pending cancel to ``cancelled``.

        A running job whose cancel raced a failure, a graceful release or a
        lease reclaim lands back in ``queued`` with ``cancel_requested``
        still set.  Claiming skips such rows, so without this sweep they
        would sit unclaimable forever (and keep drain loops from going
        idle); instead the next claim honors the cancel.
        """
        rows = conn.execute(
            "SELECT id FROM jobs WHERE state = ? AND cancel_requested = 1",
            (JOB_QUEUED,),
        ).fetchall()
        for (job_id,) in rows:
            conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, updated_at = ?"
                " WHERE id = ? AND state = ?",
                (JOB_CANCELLED, now, now, int(job_id), JOB_QUEUED),
            )
            self._append_event(conn, int(job_id), EVENT_CANCELLED, {"from_state": JOB_QUEUED}, now)

    def reclaim_expired(self) -> None:
        """Run the expired-lease sweep outside a claim (e.g. for stats pages)."""
        with self.db.transaction() as conn:
            now = self._clock()
            self._reclaim_expired(conn, now)
            self._finish_cancelled_queued(conn, now)

    # ------------------------------------------------------------- execution
    def heartbeat(
        self, job_id: int, worker: str, *, lease_seconds: float | None = None
    ) -> JobRecord | None:
        """Renew the lease; returns the fresh record, or None if ownership was lost.

        The returned record carries ``cancel_requested``, so the executor's
        heartbeat doubles as its cancellation poll.
        """
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ?, updated_at = ?"
                " WHERE id = ? AND lease_owner = ? AND state IN (?, ?)",
                (now + lease, now, job_id, worker, JOB_LEASED, JOB_RUNNING),
            )
            if cursor.rowcount != 1:
                return None
        return self.get(job_id)

    def mark_running(self, job_id: int, worker: str) -> bool:
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, started_at = COALESCE(started_at, ?),"
                " updated_at = ? WHERE id = ? AND lease_owner = ? AND state = ?",
                (JOB_RUNNING, now, now, job_id, worker, JOB_LEASED),
            )
            if cursor.rowcount != 1:
                return False
            self._append_event(conn, job_id, EVENT_RUNNING, {"worker": worker}, now)
        self._notify(job_id)
        return True

    def finish(self, job_id: int, worker: str, result: dict[str, Any] | None = None) -> bool:
        """Transition a running job to ``succeeded`` with its result summary."""
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, result = ?, error = NULL,"
                " lease_owner = NULL, lease_expires = NULL, finished_at = ?, updated_at = ?"
                " WHERE id = ? AND lease_owner = ? AND state IN (?, ?)",
                (
                    JOB_SUCCEEDED,
                    json.dumps(result or {}),
                    now,
                    now,
                    job_id,
                    worker,
                    JOB_LEASED,
                    JOB_RUNNING,
                ),
            )
            if cursor.rowcount != 1:
                return False
            self._append_event(conn, job_id, EVENT_SUCCEEDED, result or {}, now)
        self.metrics.inc("jobs.succeeded")
        self._notify(job_id)
        return True

    def fail(self, job_id: int, worker: str, error: str) -> JobRecord | None:
        """Record a failed execution: re-queue with backoff, or fail terminally.

        Returns the post-transition record (state ``queued`` when a retry was
        scheduled, ``failed`` when the attempt budget is spent), or None if
        the worker no longer owned the job.
        """
        now = self._clock()
        with self.db.transaction() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs"
                " WHERE id = ? AND lease_owner = ? AND state IN (?, ?)",
                (job_id, worker, JOB_LEASED, JOB_RUNNING),
            ).fetchone()
            if row is None:
                return None
            attempts, max_attempts = int(row[0]), int(row[1])
            if attempts >= max_attempts:
                conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, lease_owner = NULL,"
                    " lease_expires = NULL, finished_at = ?, updated_at = ? WHERE id = ?",
                    (JOB_FAILED, error, now, now, job_id),
                )
                self._append_event(
                    conn, job_id, EVENT_FAILED, {"error": error, "attempts": attempts}, now
                )
            else:
                delay = self.retry_backoff * (2 ** (attempts - 1))
                conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, lease_owner = NULL,"
                    " lease_expires = NULL, not_before = ?, updated_at = ? WHERE id = ?",
                    (JOB_QUEUED, error, now + delay, now, job_id),
                )
                self._append_event(
                    conn,
                    job_id,
                    EVENT_RETRY_SCHEDULED,
                    {"error": error, "attempts": attempts, "delay_seconds": delay},
                    now,
                )
        self.metrics.inc("jobs.failed_attempts")
        self._notify(job_id)
        return self.get(job_id)

    def release(self, job_id: int, worker: str, reason: str = "shutdown") -> bool:
        """Give a healthy job back to the queue (graceful worker shutdown).

        Unlike :meth:`fail`, releasing does not consume an attempt — the
        execution did not fail, the worker is just going away.  Progress
        checkpoints persist, so the next worker resumes where this one left
        off.
        """
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL, lease_expires = NULL,"
                " attempts = MAX(attempts - 1, 0), updated_at = ?"
                " WHERE id = ? AND lease_owner = ? AND state IN (?, ?)",
                (JOB_QUEUED, now, job_id, worker, JOB_LEASED, JOB_RUNNING),
            )
            if cursor.rowcount != 1:
                return False
            self._append_event(conn, job_id, EVENT_RELEASED, {"worker": worker, "reason": reason}, now)
        self._notify(job_id)
        return True

    # ---------------------------------------------------------- cancellation
    def cancel(self, job_id: int) -> JobRecord:
        """Cancel a job: queued → cancelled now; leased/running → flagged.

        A leased/running job cannot be yanked out from under its worker —
        instead ``cancel_requested`` is set and the executor observes it at
        its next heartbeat/version boundary and calls :meth:`mark_cancelled`.
        Terminal jobs are returned unchanged.
        """
        now = self._clock()
        with self.db.transaction() as conn:
            # Compare-and-swap, not read-then-write: another process (the
            # embedded serve workers and the CLI share the database file)
            # may claim the job between any read and our update, so each
            # branch is guarded by its expected state and the event is
            # only recorded when the matching transition actually applied.
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, cancel_requested = 1, finished_at = ?,"
                " updated_at = ? WHERE id = ? AND state = ?",
                (JOB_CANCELLED, now, now, job_id, JOB_QUEUED),
            )
            if cursor.rowcount == 1:
                self._append_event(conn, job_id, EVENT_CANCELLED, {"from_state": JOB_QUEUED}, now)
            else:
                cursor = conn.execute(
                    "UPDATE jobs SET cancel_requested = 1, updated_at = ?"
                    " WHERE id = ? AND state IN (?, ?)",
                    (now, job_id, JOB_LEASED, JOB_RUNNING),
                )
                if cursor.rowcount == 1:
                    self._append_event(conn, job_id, EVENT_CANCEL_REQUESTED, {}, now)
        self._notify(job_id)
        return self.require(job_id)

    def mark_cancelled(self, job_id: int, worker: str) -> bool:
        """Executor acknowledgment of a cancel request on a running job."""
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL, lease_expires = NULL,"
                " finished_at = ?, updated_at = ? WHERE id = ? AND lease_owner = ?"
                " AND state IN (?, ?)",
                (JOB_CANCELLED, now, now, job_id, worker, JOB_LEASED, JOB_RUNNING),
            )
            if cursor.rowcount != 1:
                return False
            self._append_event(conn, job_id, EVENT_CANCELLED, {"worker": worker}, now)
        self._notify(job_id)
        return True

    def retry(self, job_id: int) -> JobRecord:
        """Re-queue a terminal (failed/cancelled) job with a fresh attempt budget."""
        now = self._clock()
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, attempts = 0, cancel_requested = 0,"
                " error = NULL, result = NULL, not_before = ?, finished_at = NULL,"
                " updated_at = ? WHERE id = ? AND state IN (?, ?)",
                (JOB_QUEUED, now, now, job_id, JOB_FAILED, JOB_CANCELLED),
            )
            if cursor.rowcount != 1:
                job = self.require(job_id)
                raise JobError(
                    f"job {job_id} is {job.state!r}; only failed/cancelled jobs can be retried"
                )
            self._append_event(conn, job_id, EVENT_RETRIED, {}, now)
        self._note_queue_depth()
        self._notify(job_id)
        return self.require(job_id)

    # -------------------------------------------------------------- progress
    def record_event(self, job_id: int, kind: str, payload: dict[str, Any] | None = None) -> None:
        """Append an arbitrary event to a job's trail (executors use this)."""
        now = self._clock()
        with self.db.transaction() as conn:
            self._append_event(conn, job_id, kind, payload or {}, now)
        self._notify(job_id)

    def checkpoint_version(self, job_id: int, vid: str, detail: dict[str, Any] | None = None) -> None:
        """Durably record that one version's replay completed successfully.

        The checkpoint is what makes crash recovery *incremental*: a resumed
        backfill calls :meth:`completed_versions` and skips these vids.
        """
        payload = {"vid": vid, "ok": True, **(detail or {})}
        self.record_event(job_id, EVENT_VERSION, payload)

    def completed_versions(self, job_id: int) -> set[str]:
        """Vids this job has already replayed successfully (across attempts)."""
        done: set[str] = set()
        for event in self.events(job_id):
            if event.kind == EVENT_VERSION and event.payload.get("ok") and event.payload.get("vid"):
                done.add(str(event.payload["vid"]))
        return done

    def events(self, job_id: int, *, after: int = 0, limit: int | None = None) -> list[JobEventRecord]:
        """The job's trail in append order, optionally after a known seq."""
        sql = (
            "SELECT seq, job_id, kind, payload, created_at FROM job_events"
            " WHERE job_id = ? AND seq > ? ORDER BY seq ASC"
        )
        params: list[Any] = [job_id, after]
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [JobEventRecord.from_row(row) for row in self.db.query(sql, params)]

    # -------------------------------------------------------------- plumbing
    @staticmethod
    def _append_event(conn, job_id: int, kind: str, payload: dict[str, Any], now: float) -> None:
        conn.execute(
            "INSERT INTO job_events (job_id, kind, payload, created_at) VALUES (?, ?, ?, ?)",
            (job_id, kind, json.dumps(payload, default=str), now),
        )


def iter_event_payloads(events: Iterable[JobEventRecord], kind: str) -> Iterable[dict]:
    """Payloads of one event kind, in order (CLI/report helper)."""
    for event in events:
        if event.kind == kind:
            yield event.payload
