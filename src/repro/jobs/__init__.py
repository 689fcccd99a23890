"""Durable background job orchestration for hindsight backfill and replay.

The paper's headline capability — multiversion hindsight logging — replays
*every prior version* of a script, which can take minutes.  A production
service cannot run that inline with an HTTP request (the request times out)
or as a bare thread (the work dies with the process).  This package gives
backfills the accept/persist/supervise shape long-running actions need:

* :mod:`repro.jobs.store` — :class:`JobStore`: a SQLite-backed durable
  queue (``jobs`` + ``job_events`` tables from the relational schema) with
  the state machine ``queued → leased → running → succeeded | failed |
  cancelled``, priorities, compare-and-swap claiming that is safe across
  threads *and* processes, heartbeat-renewed leases so a crashed worker's
  job is reclaimed, bounded retries with exponential backoff, and
  per-version progress checkpoints;
* :mod:`repro.jobs.executor` — :func:`execute_job`: turns one claimed job
  into per-version :class:`~repro.core.hindsight.HindsightEngine` replays,
  checkpointing each completed version so a resumed job skips versions
  already replayed;
* :mod:`repro.jobs.runner` — :class:`JobRunner`: a worker-thread pool with
  a background lease heartbeat, graceful drain (in-flight jobs released at
  a version boundary), and a ``run_until_idle`` drain mode.

Quick tour::

    from repro.jobs import JobRunner, JobStore, directory_session_provider

    store = JobStore.open(root)                      # <root>/.flor-jobs.db
    job = store.submit("alpha", "backfill",
                       {"filename": "train.py", "new_source": src})
    runner = JobRunner(store, directory_session_provider(root), workers=2)
    runner.run_until_idle()
    assert store.require(job.id).state == "succeeded"

The service layer exposes the same queue over HTTP
(``POST /projects/<name>/jobs/backfill``, ``GET /jobs/<id>``, …), ``repro
serve --job-workers N`` embeds a runner next to the HTTP server, and the
``repro jobs`` CLI group submits and watches jobs from the shell.
"""

from .executor import (
    JOB_KINDS,
    KIND_BACKFILL,
    KIND_REPLAY,
    JobCancelled,
    JobExecutionError,
    JobInterrupted,
    JobLeaseLost,
    execute_job,
)
from .runner import JobRunner, directory_session_provider, pool_session_provider
from .store import JOBS_DB_FILENAME, JobStore

__all__ = [
    "JobStore",
    "JobRunner",
    "execute_job",
    "pool_session_provider",
    "directory_session_provider",
    "JOBS_DB_FILENAME",
    "JOB_KINDS",
    "KIND_BACKFILL",
    "KIND_REPLAY",
    "JobCancelled",
    "JobInterrupted",
    "JobLeaseLost",
    "JobExecutionError",
]
