"""HashRing unit tests: placement stability, determinism, membership errors.

The properties that make the ring safe to put in front of per-project
SQLite shards: the same project always resolves to the same worker (in
every thread and every *process*), and a membership change moves only the
~1/N of projects whose arcs the change touched — everything else keeps
writing to the shard files it already owns.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import FleetError
from repro.fleet import HashRing

PROJECTS = [f"tenant_{i:03d}" for i in range(400)]


def _ring(ids: list[str]) -> HashRing:
    ring = HashRing()
    for worker_id in ids:
        ring.add(worker_id)
    return ring


class TestPlacementStability:
    def test_join_moves_about_one_nth_of_projects(self):
        before = _ring(["w0", "w1", "w2"]).assignments(PROJECTS)
        after = _ring(["w0", "w1", "w2", "w3"]).assignments(PROJECTS)
        moved = [p for p in PROJECTS if before[p] != after[p]]
        # Expect ~1/4 to move to the newcomer; allow generous slack but
        # fail loudly on modulo-style reshuffles (~3/4 moved).
        assert len(moved) / len(PROJECTS) < 0.45
        # Every move lands on the new worker — nothing shuffles between
        # pre-existing workers.
        assert all(after[p] == "w3" for p in moved)

    def test_leave_moves_only_the_leavers_projects(self):
        ring = _ring(["w0", "w1", "w2", "w3"])
        before = ring.assignments(PROJECTS)
        ring.remove("w3")
        after = ring.assignments(PROJECTS)
        for project in PROJECTS:
            if before[project] != "w3":
                assert after[project] == before[project]
            else:
                assert after[project] != "w3"

    def test_leave_then_join_restores_placement_exactly(self):
        ring = _ring(["w0", "w1", "w2"])
        before = ring.assignments(PROJECTS)
        ring.remove("w1")
        ring.add("w1")
        assert ring.assignments(PROJECTS) == before

    def test_load_spread_is_not_degenerate(self):
        counts: dict[str, int] = {}
        for owner in _ring(["w0", "w1", "w2", "w3"]).assignments(PROJECTS).values():
            counts[owner] = counts.get(owner, 0) + 1
        assert set(counts) == {"w0", "w1", "w2", "w3"}
        # With 64 vnodes each worker should own a real share; a worker
        # owning <5% of projects means the vnode smoothing is broken.
        assert min(counts.values()) > 0.05 * len(PROJECTS)


class TestDeterminism:
    def test_route_is_deterministic_across_processes(self):
        """A fresh interpreter (fresh hash salt) must agree on placement."""
        script = (
            "import json, sys\n"
            "from repro.fleet import HashRing\n"
            "ring = HashRing()\n"
            "for wid in ('w0', 'w1', 'w2'):\n"
            "    ring.add(wid)\n"
            "projects = json.load(sys.stdin)\n"
            "print(json.dumps(ring.assignments(projects)))\n"
        )
        src_dir = str(Path(__file__).resolve().parents[2] / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(PROJECTS),
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src_dir, "PYTHONHASHSEED": "random", "PATH": ""},
            check=True,
        )
        assert json.loads(result.stdout) == _ring(["w0", "w1", "w2"]).assignments(PROJECTS)

    def test_route_ignores_insertion_order(self):
        assert _ring(["w0", "w1", "w2"]).assignments(PROJECTS) == _ring(
            ["w2", "w0", "w1"]
        ).assignments(PROJECTS)


class TestMembershipErrors:
    def test_duplicate_worker_id_is_rejected(self):
        ring = _ring(["w0"])
        with pytest.raises(FleetError, match="already on the ring"):
            ring.add("w0")

    def test_empty_worker_id_is_rejected(self):
        with pytest.raises(FleetError, match="non-empty"):
            HashRing().add("")

    def test_removing_an_unknown_worker_is_an_error(self):
        with pytest.raises(FleetError, match="not on the ring"):
            _ring(["w0"]).remove("w7")

    def test_routing_an_empty_ring_is_an_error(self):
        with pytest.raises(FleetError, match="no workers"):
            HashRing().route("tenant_000")

    def test_membership_queries(self):
        ring = _ring(["w0", "w1"])
        assert len(ring) == 2
        assert "w0" in ring and "w9" not in ring
        assert ring.workers() == ["w0", "w1"]
