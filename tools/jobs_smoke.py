#!/usr/bin/env python
"""End-to-end smoke test of durable job orchestration over a real socket.

What CI runs (and any developer can run locally):

1. populate a temp multi-tenant root with one project holding two committed
   versions of ``train.py`` that never logged ``weight``, then re-run the
   newest one unchanged (same version id, one more recorded run) and commit
   once from another entry point (an epoch that is *not* a run of it);
2. start ``repro serve --job-workers 1`` as a real subprocess on an
   ephemeral port;
3. submit a tiny backfill job over HTTP (``POST
   /projects/<name>/jobs/backfill``);
4. poll ``GET /jobs/<id>`` until the embedded worker drives it to
   ``succeeded``, then confirm the backfilled column through the dataframe
   endpoint: one row per epoch × step of every recorded *run* — the re-run
   included, nothing under the other entry point's commit;
5. send SIGTERM and verify the server drains and exits cleanly (exit code
   0) — the graceful-shutdown path container deployments rely on.

Exits non-zero with a diagnostic on any failure.  Usage::

    PYTHONPATH=src python tools/jobs_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import ProjectConfig, Session  # noqa: E402
from repro.jobs import JobStore  # noqa: E402
from repro.testing import ServerProcess  # noqa: E402
from repro.workloads import BackfillJobWorkload  # noqa: E402

POLL_SECONDS = 0.2
JOB_TIMEOUT = 60.0


def main() -> int:
    workload = BackfillJobWorkload(projects=1, versions=2, epochs=2, steps=1)
    project = workload.project_names()[0]
    runs = workload.versions + 1
    expected = runs * workload.epochs * workload.steps
    with tempfile.TemporaryDirectory(prefix="flor-jobs-smoke-") as tmp:
        root = Path(tmp) / "host"
        vids = workload.populate(root)[project]
        with Session(ProjectConfig(root / project, project)) as session:
            rerun = workload.script_workload().record_version(session, workload.versions - 1)
            session.log("aside", 1, filename="notebook.py")
            session.commit("from another entry point")
        assert rerun == vids[-1], "re-running an unchanged script must reuse its version id"
        print(f"populated {project} under {root} ({len(vids)} versions, {runs} runs, 1 other commit)")

        with ServerProcess(root, job_workers=1) as server:
            print(f"server up at {server.base_url}")
            body = server.post(f"/projects/{project}/jobs/backfill", workload.job_payload())
            job_id = body["job"]["id"]
            print(f"submitted job {job_id} ({body['job']['state']})")

            job = {}
            deadline = time.monotonic() + JOB_TIMEOUT
            while time.monotonic() < deadline:
                job = server.get(f"/jobs/{job_id}")["job"]
                if job["state"] in ("succeeded", "failed", "cancelled"):
                    break
                time.sleep(POLL_SECONDS)
            events = server.get(f"/jobs/{job_id}/events")["events"]
            print(f"job {job_id} -> {job.get('state')}; events: {[e['kind'] for e in events]}")
            if job.get("state") != "succeeded":
                print(f"FAIL: job finished {job.get('state')!r}, wanted 'succeeded'", file=sys.stderr)
                return 1
            if job["result"]["new_records"] != expected:
                print(f"FAIL: job reports {job['result']['new_records']} new records,"
                      f" wanted {expected} ({runs} runs)", file=sys.stderr)
                return 1

            frame = server.get(f"/projects/{project}/dataframe?names=weight")
            backfilled = sum(
                1 for record in frame["records"] if record.get("weight") is not None
            )
            print(f"backfilled weight rows visible over HTTP: {backfilled}/{expected}")
            if backfilled != expected:
                print("FAIL: backfilled column is not one row per recorded run", file=sys.stderr)
                return 1

            code = server.terminate()
            if code != 0:
                print(f"FAIL: server exited {code} after SIGTERM", file=sys.stderr)
                return 1
            print("server drained and exited 0 after SIGTERM")

        # Durability outlives the process: the job row and its trail are
        # still readable straight from the root.
        with JobStore.open(root) as store:
            job = store.require(job_id)
            assert job.state == "succeeded", job.state
            print(f"durable after shutdown: job {job.id} {job.state}, "
                  f"{len(store.events(job.id))} events on disk")
        with Session(ProjectConfig(root / project, project)) as session:
            rows = len(session.dataframe("weight"))
            assert rows == expected, rows

    print("jobs smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
