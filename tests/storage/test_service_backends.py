"""Service-level behaviour of the pluggable backends: memory, gc."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.config import ProjectConfig
from repro.core.session import Session
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


class TestGcTierCold:
    def _project_with_epochs(self, tmp_path, epochs=4):
        root = tmp_path / "proj"
        session = Session(ProjectConfig(root, "gcproj"), default_filename="train.py")
        script = root / "train.py"
        vids = []
        for epoch in range(epochs):
            script.write_text(f"print('version {epoch}')\n")
            session.repository.track("train.py")
            session.log("epoch", epoch)
            vids.append(session.commit(f"epoch {epoch}"))
        session.close()
        return root, vids

    def test_gc_archives_cold_blobs_and_history_stays_readable(self, tmp_path, capsys):
        root, vids = self._project_with_epochs(tmp_path, epochs=4)
        assert main(["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "archived: 3 blob(s)" in out
        # Every historical version — including the archived ones — still reads.
        session = Session(ProjectConfig(root, "gcproj"), default_filename="train.py")
        try:
            for epoch, vid in enumerate(vids):
                assert f"version {epoch}" in session.repository.read_file(vid, "train.py")
        finally:
            session.close()

    def test_dry_run_moves_nothing(self, tmp_path, capsys):
        root, _ = self._project_with_epochs(tmp_path, epochs=3)
        assert main(
            ["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would archive: 2 blob(s)" in out
        assert not (root / ".flor" / "objects" / "archive").exists()

    def test_gc_without_tier_cold_is_a_noop(self, tmp_path, capsys):
        root, _ = self._project_with_epochs(tmp_path, epochs=2)
        assert main(["--project", str(root), "gc"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_second_pass_archives_nothing_new(self, tmp_path, capsys):
        root, _ = self._project_with_epochs(tmp_path, epochs=3)
        main(["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1"])
        capsys.readouterr()
        assert main(["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1"]) == 0
        assert "archived: 0 blob(s)" in capsys.readouterr().out
