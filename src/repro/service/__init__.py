"""Multi-tenant service layer: many concurrent clients, one FlorDB host.

The paper positions FlorDB as shared infrastructure — log records flow in
from many training runs and are queried back "via Pandas or SQL".  This
package is the server side of that story, built on the in-process
:mod:`repro.webapp.framework`:

* :mod:`repro.service.pool` — a sharded database pool: one SQLite
  :class:`~repro.relational.database.Database` per project, an LRU-capped
  handle cache and a per-shard re-entrant lock.  Appended records are
  staged in the shard session's own record buffer and handed to its
  background flusher by size, interval or an explicit barrier, so many
  appends share one transaction,
* :mod:`repro.service.app` — the HTTP surface: bulk append, commit,
  dataframe and read-only SQL endpoints per project, plus the durable job
  endpoints (``POST /projects/<name>/jobs/backfill``, ``GET /jobs/<id>``,
  ``GET /jobs/<id>/events``, ``POST /jobs/<id>/cancel|retry``) backed by
  the host-level :class:`~repro.jobs.JobStore`,
* :mod:`repro.service.server` — a stdlib socket server bridging real HTTP
  requests onto the framework (the ``repro serve`` CLI subcommand, which
  can also embed :class:`~repro.jobs.JobRunner` workers via
  ``--job-workers N``).

Quick tour::

    from repro.service import FlorService
    from repro.webapp.framework import TestClient

    service = FlorService("/srv/flor", flush_size=64)
    client = TestClient(service.app())
    client.post("/projects/alpha/logs",
                json_body={"records": [{"name": "loss", "value": 0.5}]})
    client.post("/projects/alpha/commit", json_body={"message": "run 1"})
    frame = client.get("/projects/alpha/dataframe?names=loss").json()
"""

from .app import SERVICE_FILENAME, FlorService, create_app
from .pool import DatabasePool, ProjectShard

__all__ = [
    "FlorService",
    "create_app",
    "SERVICE_FILENAME",
    "DatabasePool",
    "ProjectShard",
]
