"""Service-level behaviour of the pluggable backends."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.service import FlorService
from repro.service.pool import DatabasePool
from repro.webapp import TestClient


def _service(tmp_path, **kwargs):
    service = FlorService(tmp_path / "root", **kwargs)
    return service, TestClient(service.app())


def _append(client, name, records):
    response = client.post(
        f"/projects/{name}/logs",
        {"records": [{"name": n, "value": v} for n, v in records]},
    )
    assert response.status == 202
    return response


class TestReadReplicasAreGone:
    @pytest.mark.parametrize("factory", [DatabasePool, FlorService])
    def test_the_replicas_knob_is_rejected(self, tmp_path, factory):
        # One read path: every read flushes its shard and reads that database.
        with pytest.raises(TypeError):
            factory(tmp_path / "root", replicas=1)


class TestMemoryBackend:
    def test_zero_disk_io(self, tmp_path):
        pool = DatabasePool(tmp_path / "root", backend="memory")
        shard = pool.get("beta")
        shard.session.log("acc", 0.9)
        shard.flush()
        assert shard.session.db.count("logs") == 1
        pool.close()
        assert not (tmp_path / "root").exists()

    def test_eviction_retains_shard_state(self, tmp_path):
        pool = DatabasePool(tmp_path / "root", backend="memory", capacity=1)
        shard = pool.get("beta")
        shard.session.log("acc", 1)
        shard.flush()
        pool.get("gamma")  # evicts beta (capacity 1)
        reopened = pool.get("beta")
        assert reopened.session.db.count("logs") == 1
        pool.close()

    def test_memory_service_end_to_end(self, tmp_path):
        service, client = _service(tmp_path, backend="memory")
        try:
            _append(client, "beta", [("x", 1), ("y", 2)])
            body = client.get("/projects/beta/dataframe?names=x,y").json()
            assert body["rows"] == 1  # one run context -> one pivot row
            counted = client.get(
                "/projects/beta/sql?q=SELECT COUNT(*) AS n FROM logs"
            ).json()
            assert counted["records"] == [{"n": 2}]
        finally:
            service.close()
        assert not (tmp_path / "root").exists()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatabasePool(tmp_path / "root", backend="papyrus")


class TestColdTieringIsGone:
    def test_gc_is_an_invalid_choice(self, tmp_path, capsys):
        # Blobs have one layout; an archive an older release left is
        # unpacked when its object store opens.
        with pytest.raises(SystemExit) as exited:
            main(["--project", str(tmp_path / "proj"), "gc", "--tier-cold"])
        assert exited.value.code == 2
        assert "invalid choice: 'gc'" in capsys.readouterr().err

    def test_the_tiered_store_is_not_exported(self):
        import repro.storage

        with pytest.raises(AttributeError):
            repro.storage.TieredBlobStore
