"""HTTP-level QoS behaviour: enforcement on tenant routes, policy admin API.

Covers the ISSUE acceptance criteria at the protocol level: over-limit
requests get ``429`` with a computed ``Retry-After`` (never queued),
conflicting policy writes get ``409`` with the structured conflict detail,
and admission counters surface in both stats routes.
"""

from __future__ import annotations

import json

import pytest

from repro.service import FlorService
from repro.webapp.framework import TestClient
from repro.workloads import BackfillJobWorkload


@pytest.fixture()
def service(tmp_path):
    service = FlorService(tmp_path / "host", flush_interval=None, qos=True)
    yield service
    service.close()


@pytest.fixture()
def client(service):
    return TestClient(service.app())


def _append(client, project: str, values):
    payload = {
        "records": [{"name": "loss", "value": v, "ctx_id": i} for i, v in enumerate(values)]
    }
    return client.post(f"/projects/{project}/logs", json_body=payload)


class TestEnforcement:
    def test_rate_limited_tenant_gets_429_with_retry_after(self, client):
        response = client.put("/service/policy/hot", json_body={"rate": 2.0, "burst": 2.0})
        assert response.status == 200
        assert _append(client, "hot", [0.1]).status == 202
        assert _append(client, "hot", [0.2]).status == 202
        throttled = _append(client, "hot", [0.3])
        assert throttled.status == 429
        retry_after = float(throttled.headers["Retry-After"])
        assert retry_after > 0.0
        body = throttled.json()
        assert body["detail"]["reason"] == "rate"
        assert body["detail"]["tenant"] == "hot"

    def test_oversized_append_is_413_not_queued(self, client):
        client.put("/service/policy/hot", json_body={"byte_quota": 64, "window_seconds": 30.0})
        response = _append(client, "hot", [0.1, 0.2, 0.3, 0.4, 0.5])
        assert response.status == 413
        assert response.json()["detail"]["reason"] == "too_large"
        assert "Retry-After" in response.headers

    def test_other_tenants_unaffected_by_hot_throttle(self, client):
        client.put("/service/policy/hot", json_body={"rate": 1.0, "burst": 1.0})
        assert _append(client, "hot", [0.1]).status == 202
        assert _append(client, "hot", [0.2]).status == 429
        for i in range(5):
            assert _append(client, "cold", [float(i)]).status == 202

    def test_reads_are_enforced_too(self, client, service):
        assert _append(client, "hot", [0.1]).status == 202
        client.put("/service/policy/hot", json_body={"rate": 1.0, "burst": 1.0})
        assert client.get("/projects/hot/dataframe?names=loss").status == 200
        denied = client.get("/projects/hot/dataframe?names=loss")
        assert denied.status == 429

    def test_stats_remain_reachable_while_throttled(self, client):
        client.put("/service/policy/hot", json_body={"rate": 1.0, "burst": 1.0})
        assert _append(client, "hot", [0.1]).status == 202
        assert _append(client, "hot", [0.2]).status == 429
        stats = client.get("/projects/hot/stats")
        assert stats.status == 200
        qos = stats.json()["qos"]
        assert qos["admitted"] == 1
        assert qos["throttled"] == 1
        assert qos["policy"]["source"] == "rule"

    def test_service_stats_carries_global_qos_block(self, client):
        client.put("/service/policy/hot", json_body={"rate": 1.0, "burst": 1.0})
        _append(client, "hot", [0.1])
        _append(client, "hot", [0.2])
        _append(client, "cold", [0.3])
        qos = client.get("/service/stats").json()["qos"]
        assert qos["admitted"] == 2
        assert qos["throttled"] == 1
        assert set(qos["tenants"]) == {"hot", "cold"}

    def test_disabled_service_never_throttles_and_reports_no_qos(self, tmp_path):
        service = FlorService(tmp_path / "plain", flush_interval=None)
        try:
            client = TestClient(service.app())
            # The policy table is writable even with enforcement off …
            client.put("/service/policy/hot", json_body={"rate": 1.0, "burst": 1.0})
            # … but nothing is enforced and stats carry no counters.
            for i in range(10):
                assert _append(client, "hot", [float(i)]).status == 202
            assert client.get("/service/policy").json()["enforcing"] is False
            assert "qos" not in client.get("/service/stats").json()
            assert client.get("/projects/hot/stats").json()["qos"] is None
        finally:
            service.close()


class TestPolicyRoutes:
    def test_table_roundtrip(self, client):
        client.put("/service/policy/hot", json_body={"rate": 2.0, "priority": "low"})
        client.put("/service/policy/*", json_body={"rate": 50.0})
        table = client.get("/service/policy").json()
        assert table["enforcing"] is True
        assert table["generation"] == 2
        assert [r["selector"] for r in table["rules"]] == ["hot"]
        assert table["default"]["rate"] == 50.0

    def test_get_concrete_tenant_includes_resolution(self, client):
        client.put("/service/policy/team_*", json_body={"rate": 5.0})
        payload = client.get("/service/policy/team_a").json()
        assert payload["rule"] is None  # no exact rule for team_a
        assert payload["resolved"]["selector"] == "team_*"
        assert payload["resolved"]["source"] == "rule"

    def test_get_missing_pattern_rule_is_404(self, client):
        assert client.get("/service/policy/team_*").status == 404

    def test_conflicting_write_is_409_with_structured_detail(self, client):
        assert client.put("/service/policy/team_*", json_body={"rate": 5.0}).status == 200
        conflict = client.put("/service/policy/team_a", json_body={"rate": 50.0})
        assert conflict.status == 409
        detail = conflict.json()["detail"]
        assert detail["code"] == "shadowed"
        assert detail["selector"] == "team_a"
        assert detail["by"] == "team_*"
        # The rejected rule was not stored.
        assert client.get("/service/policy/team_a").json()["rule"] is None

    def test_contradictory_write_is_409_naming_the_field(self, client):
        response = client.put("/service/policy/hot", json_body={"rate": 0.0})
        assert response.status == 409
        assert response.json()["detail"] == {
            "code": "contradiction",
            "selector": "hot",
            "field": "rate",
        }

    def test_malformed_payload_is_400(self, client):
        assert client.put("/service/policy/hot", json_body={"speed": 9}).status == 400
        assert client.put("/service/policy/bad name", json_body={"rate": 1.0}).status == 400

    @pytest.mark.parametrize("position", ["abc", 1.5, 10**400])
    def test_non_integer_position_is_400_and_stores_nothing(self, client, position):
        response = client.put("/service/policy/hot", json_body={"rate": 1.0, "position": position})
        assert response.status == 400
        assert "'position' must be a 64-bit integer" in response.json()["error"]
        assert client.get("/service/policy/hot").json()["rule"] is None

    def test_zero_window_is_409_naming_the_field(self, client):
        response = client.put("/service/policy/hot", json_body={"window_seconds": 0, "byte_quota": 10})
        assert response.status == 409
        assert response.json()["detail"]["field"] == "window_seconds"

    def test_delete_then_404(self, client):
        client.put("/service/policy/hot", json_body={"rate": 1.0})
        assert client.delete("/service/policy/hot").status == 200
        assert client.delete("/service/policy/hot").status == 404

    def test_policy_change_applies_to_live_admission(self, client):
        client.put("/service/policy/hot", json_body={"rate": 1.0, "burst": 1.0})
        assert _append(client, "hot", [0.1]).status == 202
        assert _append(client, "hot", [0.2]).status == 429
        client.delete("/service/policy/hot")
        assert _append(client, "hot", [0.3]).status == 202


class TestPolicyFileAndJobPriority:
    def test_policy_file_loads_at_boot_and_enables_qos(self, tmp_path):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(
            json.dumps(
                {
                    "default": {"rate": 100.0},
                    "rules": [{"selector": "hot", "rate": 1.0, "burst": 1.0}],
                }
            )
        )
        service = FlorService(
            tmp_path / "host", flush_interval=None, qos_policy_file=policy_file
        )
        try:
            client = TestClient(service.app())
            assert service.admission is not None  # the file implies --qos
            assert _append(client, "hot", [0.1]).status == 202
            assert _append(client, "hot", [0.2]).status == 429
            assert _append(client, "other", [0.3]).status == 202
        finally:
            service.close()

    def test_backfill_priority_defaults_to_policy_class(self, tmp_path):
        workload = BackfillJobWorkload(projects=1, versions=2, epochs=2, steps=1)
        project = workload.project_names()[0]
        root = tmp_path / "host"
        workload.populate(root)
        service = FlorService(root, flush_interval=None, qos=True)
        try:
            client = TestClient(service.app())
            client.put(f"/service/policy/{project}", json_body={"priority": "high"})
            body = {"filename": workload.filename, "new_source": workload.hindsight_source()}
            job = client.post(f"/projects/{project}/jobs/backfill", json_body=body).json()["job"]
            assert job["priority"] == 100  # class default
            body["priority"] = 7
            explicit = client.post(
                f"/projects/{project}/jobs/backfill", json_body=body
            ).json()["job"]
            assert explicit["priority"] == 7  # explicit wins over the class
        finally:
            service.close()
