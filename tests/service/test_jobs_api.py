"""Tests for the durable-job HTTP endpoints of the multi-tenant service."""

from __future__ import annotations

import threading
import time

import pytest

from repro.jobs import JobRunner, pool_session_provider
from repro.relational.queries import log_watermark
from repro.service import FlorService
from repro.webapp.framework import TestClient
from repro.workloads import BackfillJobWorkload

WORKLOAD = BackfillJobWorkload(projects=1, versions=2, epochs=2, steps=1)
PROJECT = WORKLOAD.project_names()[0]


@pytest.fixture()
def service(tmp_path):
    root = tmp_path / "host"
    WORKLOAD.populate(root)
    service = FlorService(root, flush_interval=None)
    yield service
    service.close()


@pytest.fixture()
def client(service):
    return TestClient(service.app())


def _submit(client, payload=None):
    body = {"filename": WORKLOAD.filename, "new_source": WORKLOAD.hindsight_source()}
    body.update(payload or {})
    return client.post(f"/projects/{PROJECT}/jobs/backfill", json_body=body)


class TestSubmit:
    def test_submit_persists_and_returns_202(self, client, service):
        response = _submit(client, {"priority": 2, "max_attempts": 5})
        assert response.status == 202
        job = response.json()["job"]
        assert job["state"] == "queued"
        assert job["project"] == PROJECT
        assert job["priority"] == 2
        assert job["max_attempts"] == 5
        # Durable: visible straight from the store, not just the response.
        assert service.jobs.require(job["id"]).state == "queued"

    def test_submit_to_unknown_project_is_404(self, client):
        response = client.post(
            "/projects/nosuch/jobs/backfill", json_body={"filename": "train.py"}
        )
        assert response.status == 404

    def test_submit_requires_filename(self, client):
        response = client.post(f"/projects/{PROJECT}/jobs/backfill", json_body={})
        assert response.status == 400

    def test_submit_validates_kind_versions_and_plan(self, client):
        assert _submit(client, {"kind": "nope"}).status == 400
        assert _submit(client, {"versions": "v1"}).status == 400
        assert _submit(client, {"versions": [1, 2]}).status == 400
        assert _submit(client, {"plan": [1]}).status == 400
        assert _submit(client, {"new_source": 42}).status == 400

    @pytest.mark.parametrize("field", ["priority", "max_attempts"])
    def test_a_number_past_64_bits_is_a_400(self, client, service, field):
        response = _submit(client, {field: 10**30})
        assert response.status == 400
        assert "64-bit integer" in response.json()["error"]
        assert service.jobs.list_jobs() == []

    def test_submit_accepts_plan_and_versions(self, client):
        response = _submit(
            client, {"versions": ["abc"], "plan": {"epoch": [0]}, "include_latest": False}
        )
        assert response.status == 202
        payload = response.json()["job"]["payload"]
        assert payload["versions"] == ["abc"]
        assert payload["plan"] == {"epoch": [0]}
        assert payload["include_latest"] is False


class TestStatusAndEvents:
    def test_status_404_for_unknown_and_400_for_garbage_ids(self, client):
        assert client.get("/jobs/999").status == 404
        assert client.get("/jobs/banana").status == 400

    def test_status_reflects_the_store(self, client):
        job_id = _submit(client).json()["job"]["id"]
        body = client.get(f"/jobs/{job_id}").json()
        assert body["job"]["id"] == job_id
        assert body["job"]["state"] == "queued"

    def test_events_are_incremental_via_after(self, client, service):
        job_id = _submit(client).json()["job"]["id"]
        body = client.get(f"/jobs/{job_id}/events").json()
        assert [e["kind"] for e in body["events"]] == ["submitted"]
        last = body["last_seq"]
        service.jobs.record_event(job_id, "custom", {"x": 1})
        delta = client.get(f"/jobs/{job_id}/events?after={last}").json()
        assert [e["kind"] for e in delta["events"]] == ["custom"]

    def test_list_jobs_filters(self, client):
        first = _submit(client).json()["job"]["id"]
        second = _submit(client).json()["job"]["id"]
        body = client.get("/jobs").json()
        assert [j["id"] for j in body["jobs"]] == [second, first]
        assert client.get(f"/jobs?project={PROJECT}&limit=1").json()["jobs"][0]["id"] == second
        assert client.get("/jobs?state=succeeded").json()["jobs"] == []
        assert client.get("/jobs?state=bogus").status == 400

    def test_query_numbers_past_64_bits_are_a_400(self, client):
        job_id = _submit(client).json()["job"]["id"]
        assert client.get(f"/jobs?limit={10**30}").status == 400
        assert client.get(f"/jobs/{job_id}/events?after={-(10**30)}").status == 400
        assert client.get(f"/jobs/{10**30}").status == 400
        assert client.get(f"/jobs/{job_id}/events?after={2**63 - 1}").json()["events"] == []

    def test_service_stats_reports_job_counts(self, client):
        _submit(client)
        stats = client.get("/service/stats").json()
        assert stats["jobs"]["queued"] == 1


class TestCancelAndRetry:
    def test_cancel_a_queued_job(self, client):
        job_id = _submit(client).json()["job"]["id"]
        body = client.post(f"/jobs/{job_id}/cancel").json()
        assert body["job"]["state"] == "cancelled"

    def test_retry_a_cancelled_job(self, client):
        job_id = _submit(client).json()["job"]["id"]
        client.post(f"/jobs/{job_id}/cancel")
        body = client.post(f"/jobs/{job_id}/retry")
        assert body.status == 200
        assert body.json()["job"]["state"] == "queued"

    def test_retry_of_a_queued_job_conflicts(self, client):
        job_id = _submit(client).json()["job"]["id"]
        assert client.post(f"/jobs/{job_id}/retry").status == 409

    def test_cancel_unknown_job_is_404(self, client):
        assert client.post("/jobs/7777/cancel").status == 404


class TestEndToEnd:
    def test_http_submitted_job_executes_against_the_pool(self, client, service):
        """Submit over HTTP, drain with pool-backed workers, read the column back."""
        before = client.get(f"/projects/{PROJECT}/dataframe?names=weight").json()
        assert all(r["weight"] is None for r in before["records"])

        job_id = _submit(client).json()["job"]["id"]
        runner = JobRunner(
            service.jobs,
            pool_session_provider(service.pool),
            workers=1,
            poll_interval=0.01,
        )
        assert runner.run_until_idle(timeout=60.0)

        body = client.get(f"/jobs/{job_id}").json()
        assert body["job"]["state"] == "succeeded"
        assert body["job"]["result"]["new_records"] == WORKLOAD.expected_new_records

        kinds = [e["kind"] for e in client.get(f"/jobs/{job_id}/events").json()["events"]]
        assert kinds[0] == "submitted" and kinds[-1] == "succeeded"
        assert kinds.count("version") == WORKLOAD.versions

        after = client.get(f"/projects/{PROJECT}/dataframe?names=weight").json()
        assert sum(1 for r in after["records"] if r["weight"] is not None) == (
            WORKLOAD.expected_new_records
        )


class TestReplayJobLandsThroughTheShard:
    """A ``replay`` job's rows take the shard session's landing path like any
    other write: counted by its flusher and published to the project tail."""

    def test_rows_are_counted_by_the_shards_flusher_and_wake_the_tail(self, client, service):
        with service.pool.checkout(PROJECT) as shard:
            # Lose every recorded ``loss`` row so the replay has rows to regenerate.
            lost = shard.session.db.execute("DELETE FROM logs WHERE value_name = 'loss'").rowcount
            watermark = log_watermark(shard.session.db, PROJECT)
            transactions = shard.session.flusher.stats.transactions
        assert lost == WORKLOAD.versions * WORKLOAD.epochs * WORKLOAD.steps

        job = client.post(
            f"/projects/{PROJECT}/jobs/backfill",
            json_body={"kind": "replay", "filename": WORKLOAD.filename},
        ).json()["job"]
        runner = JobRunner(
            service.jobs, pool_session_provider(service.pool), workers=1, poll_interval=0.01
        )
        started = []

        def run_job_once_the_subscriber_waits():
            time.sleep(0.3)
            started.append(time.monotonic())
            runner.run_until_idle(timeout=60.0)

        worker = threading.Thread(target=run_job_once_the_subscriber_waits)
        worker.start()
        try:
            # keepalive=60: only a publish can wake this subscriber in time.
            stream = client.sse(f"/projects/{PROJECT}/tail?keepalive=60&since_seq={watermark}")
            events = stream.collect(max_events=lost, timeout=30)
            arrived = time.monotonic()
        finally:
            worker.join()
        assert [e.json()["name"] for e in events] == ["loss"] * lost
        assert arrived - started[0] < 2.0

        assert service.jobs.require(job["id"]).result["new_records"] == lost
        with service.pool.checkout(PROJECT) as shard:
            assert shard.session.flusher.stats.transactions == transactions + WORKLOAD.versions
