"""Tail/telemetry route tests: cursors, reconnects, eviction, backpressure.

Everything runs in-process through :class:`TestClient` — the SSE generator
is pulled lazily, so a test can take a few events, ingest more rows, and
keep pulling: the generator's next fetch sees the newly committed rows,
which is exactly the live-tail behaviour over a socket (minus the socket).
``keepalive`` is set low everywhere so idle waits resolve in milliseconds.
"""

from __future__ import annotations

import pytest

from repro.service import FlorService
from repro.webapp.framework import TestClient


@pytest.fixture()
def service(tmp_path):
    service = FlorService(tmp_path / "host", pool_capacity=4, flush_size=2, flush_interval=None)
    yield service
    service.close()


@pytest.fixture()
def client(service):
    return TestClient(service.app())


def _ingest(client, project: str, values, filename: str = "train.py"):
    response = client.post(
        f"/projects/{project}/logs",
        json_body={
            "filename": filename,
            "records": [
                {"name": "loss", "value": value, "ctx_id": i} for i, value in enumerate(values)
            ],
        },
    )
    assert response.status == 202
    return response


def _flush(service, project: str) -> None:
    with service.pool.checkout(project) as shard:
        shard.flush()


def _tail(client, project: str, *, headers=None, query: str = ""):
    url = f"/projects/{project}/tail?keepalive=0.05" + (f"&{query}" if query else "")
    return client.sse(url, headers=headers)


class TestProjectTailBackfill:
    def test_backlog_streams_with_seq_as_event_id(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4, 0.3])
        _flush(service, "alpha")
        events = _tail(client, "alpha").collect(max_events=3, timeout=10)
        assert [e.id for e in events] == ["1", "2", "3"]
        assert all(e.event == "log" for e in events)
        payload = events[0].json()
        assert payload["name"] == "loss"
        assert payload["value"] == "0.5"
        assert payload["filename"] == "train.py"

    def test_last_event_id_resumes_without_duplicates(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4, 0.3, 0.2])
        _flush(service, "alpha")
        stream = _tail(client, "alpha", headers={"Last-Event-ID": "2"})
        events = stream.collect(max_events=2, timeout=10)
        assert [e.id for e in events] == ["3", "4"]

    def test_since_seq_query_is_the_header_fallback(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4, 0.3])
        _flush(service, "alpha")
        events = _tail(client, "alpha", query="since_seq=2").collect(max_events=1, timeout=10)
        assert [e.id for e in events] == ["3"]

    def test_header_wins_over_since_seq(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4, 0.3])
        _flush(service, "alpha")
        stream = _tail(
            client, "alpha", headers={"Last-Event-ID": "2"}, query="since_seq=0"
        )
        assert [e.id for e in stream.collect(max_events=1, timeout=10)] == ["3"]

    def test_garbage_cursor_is_a_400(self, client, service):
        _ingest(client, "alpha", [0.5])
        _flush(service, "alpha")
        assert _tail(client, "alpha", query="since_seq=banana").status == 400

    def test_unknown_project_is_a_404(self, client):
        assert _tail(client, "ghost").status == 404


class TestProjectTailLive:
    def test_rows_ingested_mid_stream_arrive_on_the_open_tail(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        stream = _tail(client, "alpha")
        events = iter(stream.events(max_events=4, timeout=10))
        assert next(events).id == "1"
        assert next(events).id == "2"
        _ingest(client, "alpha", [0.3, 0.2])  # flush_size=2 commits inline
        _flush(service, "alpha")
        assert [e.id for e in events] == ["3", "4"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_keepalive_is_a_400(self, client, service, value):
        """NaN passed the clamp, and a wait of NaN seconds returns at once:
        the tail re-read the shard in a busy loop."""
        _ingest(client, "alpha", [0.5])
        _flush(service, "alpha")
        with client.sse(f"/projects/alpha/tail?keepalive={value}") as stream:
            assert stream.status == 400

    def test_stale_cursor_beyond_the_watermark_is_clamped(self, client, service):
        """A Last-Event-ID from before a project reset must not make the
        subscriber wait forever for sequence numbers that never come."""
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        stream = _tail(client, "alpha", headers={"Last-Event-ID": "999999"})
        _ingest(client, "alpha", [0.3, 0.2])
        _flush(service, "alpha")
        events = stream.collect(max_events=2, timeout=10)
        assert [e.id for e in events] == ["3", "4"]

    def test_tail_survives_shard_eviction_and_reopen(self, client, service):
        """The broker stream is keyed by project *name*; the generator's
        per-fetch checkout transparently reopens an evicted shard (fresh
        incarnation, same SQLite file), so the cursor just keeps going."""
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        stream = _tail(client, "alpha")
        events = iter(stream.events(max_events=4, timeout=10))
        assert [next(events).id, next(events).id] == ["1", "2"]
        # Evict alpha by filling the pool (capacity 4) with other tenants.
        for other in ("b1", "b2", "b3", "b4"):
            _ingest(client, other, [1.0, 1.0])
            _flush(service, other)
        assert "alpha" not in service.pool
        _ingest(client, "alpha", [0.3, 0.2])
        _flush(service, "alpha")
        assert [e.id for e in events] == ["3", "4"]

    def test_tail_survives_a_fleet_drain_seal(self, client, service):
        """POST /fleet/drain seals every shard; the open tail reopens it
        on the next fetch and resumes from its cursor."""
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        stream = _tail(client, "alpha")
        events = iter(stream.events(max_events=4, timeout=10))
        assert [next(events).id, next(events).id] == ["1", "2"]
        assert client.post("/fleet/drain").status == 200
        _ingest(client, "alpha", [0.3, 0.2])
        _flush(service, "alpha")
        assert [e.id for e in events] == ["3", "4"]


class TestEvictionAndBackpressure:
    def test_slow_consumer_is_evicted_and_told_why(self, tmp_path):
        service = FlorService(
            tmp_path / "host", flush_size=2, flush_interval=None, tail_max_lag=3
        )
        try:
            client = TestClient(service.app())
            _ingest(client, "alpha", [0.1, 0.2])
            _flush(service, "alpha")
            stream = _tail(client, "alpha")  # subscribed, but not consuming
            # Publish far past max_lag while the consumer sits idle.
            for _ in range(4):
                _ingest(client, "alpha", [1.0, 2.0])
            _flush(service, "alpha")
            events = stream.collect(max_events=1, timeout=10)
            assert events[0].event == "evicted"
            assert "lagging" in events[0].json()["reason"]
            assert service.tail.stats()["evicted_total"] == 1
        finally:
            service.close()

    def test_subscriber_cap_answers_503_with_retry_after(self, tmp_path):
        service = FlorService(
            tmp_path / "host", flush_size=2, flush_interval=None, tail_max_subscribers=1
        )
        try:
            client = TestClient(service.app())
            _ingest(client, "alpha", [0.1, 0.2])
            _flush(service, "alpha")
            held = _tail(client, "alpha")  # occupies the only slot
            refused = _tail(client, "alpha")
            assert refused.status == 503
            assert refused.headers.get("Retry-After") == "1.0"
            held.close()
            # The slot is free again once the first stream closes.
            assert _tail(client, "alpha").status == 200
        finally:
            service.close()

    def test_service_close_ends_open_tails(self, tmp_path):
        service = FlorService(tmp_path / "host", flush_size=2, flush_interval=None)
        client = TestClient(service.app())
        _ingest(client, "alpha", [0.1, 0.2])
        _flush(service, "alpha")
        stream = _tail(client, "alpha")
        events = iter(stream.events(max_events=3, timeout=10))
        assert next(events).id == "1"
        service.close()
        remaining = list(events)
        assert remaining[-1].event == "evicted"
        assert "shutting down" in remaining[-1].json()["reason"]


class TestJobTail:
    def test_job_events_stream_and_end_with_done(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        job = client.post(
            "/projects/alpha/jobs/backfill", json_body={"filename": "train.py"}
        ).json()["job"]
        client.post(f"/jobs/{job['id']}/cancel")
        stream = client.sse(f"/jobs/{job['id']}/tail?keepalive=0.05")
        events = stream.collect(timeout=10)
        kinds = [e.event for e in events]
        assert kinds[0] == "submitted"
        assert "cancelled" in kinds
        assert kinds[-1] == "done"
        assert events[-1].json()["state"] == "cancelled"

    def test_job_tail_resumes_from_last_event_id(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        job = client.post(
            "/projects/alpha/jobs/backfill", json_body={"filename": "train.py"}
        ).json()["job"]
        client.post(f"/jobs/{job['id']}/cancel")
        first = client.sse(f"/jobs/{job['id']}/tail?keepalive=0.05").collect(timeout=10)
        resume_from = first[0].id
        second = client.sse(
            f"/jobs/{job['id']}/tail?keepalive=0.05",
            headers={"Last-Event-ID": str(resume_from)},
        ).collect(timeout=10)
        # Everything after the resume cursor replays, nothing before it.
        assert [e.id for e in second if e.id] == [e.id for e in first[1:] if e.id]

    def test_unknown_job_tail_is_a_404(self, client):
        assert client.sse("/jobs/9999/tail").status == 404


class TestTelemetryRoute:
    def test_snapshot_carries_registry_tail_and_jobs(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        body = client.get("/service/telemetry").json()
        assert body["counters"]["flush.rows"] >= 2
        assert body["open_shards"] == 1
        assert body["tail"]["subscribers"] == 0
        assert "queued" in body["jobs"]
        assert "flush.ms" in body["histograms"]

    def test_stream_mode_emits_periodic_snapshots(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        stream = client.sse("/service/telemetry?stream=1&interval=0.05")
        events = stream.collect(max_events=2, timeout=10)
        assert [e.event for e in events] == ["telemetry", "telemetry"]
        assert [e.id for e in events] == ["1", "2"]
        assert events[0].json()["counters"]["flush.rows"] >= 2

    def test_tail_subscriptions_show_up_in_telemetry(self, client, service):
        _ingest(client, "alpha", [0.5, 0.4])
        _flush(service, "alpha")
        stream = _tail(client, "alpha")
        stream.collect(max_events=1, timeout=10)  # generator now running
        # collect() closed the stream; subscribed_total remembers it.
        body = client.get("/service/telemetry").json()
        assert body["tail"]["subscribed_total"] >= 1

    def test_bad_interval_is_a_400(self, client):
        assert client.get("/service/telemetry?stream=1&interval=abc").status == 400

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_interval_is_a_400(self, client, value):
        """NaN passed the clamp, and the stream died in ``time.sleep(nan)``
        after its first frame."""
        response = client.get(f"/service/telemetry?stream=1&interval={value}")
        assert response.status == 400
        assert "finite" in response.json()["error"]
