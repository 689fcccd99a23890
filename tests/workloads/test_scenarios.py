"""Tests for the scenario zoo: agent traces and multi-project fan-out."""

from __future__ import annotations

from repro.service import FlorService
from repro.webapp.framework import TestClient
from repro.workloads import AgentSessionWorkload, MultiProjectFanoutWorkload


class TestAgentSessionWorkload:
    def test_populate_writes_the_advertised_counts(self, session):
        workload = AgentSessionWorkload(sessions=2, turns_per_session=3, tool_calls_per_turn=2)
        assert workload.records_per_turn == 9  # 3 fixed + 3 per tool call
        written = workload.populate(session)
        assert written == workload.total_records == 54
        assert session.logs.count() == 54
        assert session.loops.count() == 6  # one turn loop row per turn
        # Ragged, string-heavy trace is still queryable as a frame.
        frame = session.dataframe("tokens_in", "eval_score")
        assert len(frame) == 6

    def test_payloads_are_seeded_and_tag_namespaced(self):
        workload = AgentSessionWorkload(sessions=2, turns_per_session=2, seed=11, tag="trace")
        payloads = list(workload.request_payloads())
        assert len(payloads) == 4  # one POST body per turn
        for payload in payloads:
            assert payload["filename"] == workload.filename
            assert len(payload["records"]) == workload.records_per_turn
            assert all(r["value"].startswith("trace.s") for r in payload["records"])
        # Same seed, same schedule: a chaos ledger can be rebuilt offline.
        replay = list(AgentSessionWorkload(sessions=2, turns_per_session=2, seed=11, tag="trace").request_payloads())
        assert replay == payloads
        assert list(AgentSessionWorkload(sessions=2, turns_per_session=2, seed=12, tag="trace").request_payloads()) != payloads

    def test_http_ingestion_matches_the_record_math(self, tmp_path):
        workload = AgentSessionWorkload(sessions=2, turns_per_session=2, tool_calls_per_turn=1)
        service = FlorService(tmp_path / "root", flush_size=4, flush_interval=None)
        client = TestClient(service.app())
        try:
            for payload in workload.request_payloads():
                assert client.post("/projects/agents/logs", json_body=payload).status == 202
            frame = client.get("/projects/agents/dataframe?names=tool,tool_status")
            assert frame.ok
            stats = client.get("/projects/agents/stats").json()
            assert stats["tables"]["logs"] == workload.total_records
        finally:
            service.close()


class TestMultiProjectFanoutWorkload:
    def test_populate_spreads_batches_across_tenants(self, make_session):
        workload = MultiProjectFanoutWorkload(tenants=3, batches_per_tenant=2, records_per_batch=4)
        sessions = {}

        def provider(name):
            sessions[name] = make_session(name)
            return sessions[name]

        written = workload.populate(provider)
        assert written == workload.total_records == 24
        assert set(sessions) == set(workload.project_names())
        for session in sessions.values():
            assert session.logs.count() == 8

    def test_payloads_interleave_round_robin(self, tmp_path):
        workload = MultiProjectFanoutWorkload(tenants=3, batches_per_tenant=2, records_per_batch=2)
        pairs = list(workload.request_payloads())
        # The first cycle hits every tenant once before any repeats — that
        # ordering is what churns the pool's LRU in the chaos soak.
        first_cycle = [project for project, _ in pairs[: workload.tenants]]
        assert first_cycle == workload.project_names()
        service = FlorService(tmp_path / "root", pool_capacity=2, flush_size=4, flush_interval=None)
        client = TestClient(service.app())
        try:
            for project, payload in pairs:
                assert client.post(f"/projects/{project}/logs", json_body=payload).status == 202
            for project in workload.project_names():
                client.get(f"/projects/{project}/dataframe?names={workload.value_name}")
                stats = client.get(f"/projects/{project}/stats").json()
                assert (
                    stats["tables"]["logs"]
                    == workload.batches_per_tenant * workload.records_per_batch
                )
                assert stats["flusher"]["dropped_rows"] == 0
            assert service.pool.stats.evictions > 0  # capacity 2 < 3 tenants
        finally:
            service.close()
