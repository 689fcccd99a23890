"""Consistent-hash ring: stable ``project -> worker`` placement.

The fleet router must answer "which worker owns this project?" the same
way on every request, from every thread, in every process — and keep most
of those answers stable when a worker joins or leaves.  A modulo table
(``hash(p) % N``) reshuffles nearly every project when N changes; the
classic consistent-hash ring moves only ~1/N of them.

Each worker id is hashed onto :data:`VNODES` points of a circular keyspace;
a project routes to the owner of the first point clockwise of its own
hash.  Virtual nodes smooth the load split (with one point per worker,
two adjacent workers can end up owning wildly uneven arcs).

Hashes come from :func:`hashlib.blake2b`, never Python's builtin
``hash`` — the builtin is salted per process (``PYTHONHASHSEED``), and a
ring whose placement differs between the router and a debugging shell
would be useless.  Determinism across processes is tested by spawning a
fresh interpreter.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from hashlib import blake2b

from ..errors import FleetError

#: Virtual nodes per worker.  64 keeps the max/min arc ratio tight enough
#: for single-digit worker counts while the ring stays tiny (N*64 points).
VNODES = 64


@lru_cache(maxsize=4096)  # every proxied request hashes its project name again
def _point(key: str) -> int:
    """Deterministic 64-bit position on the ring for ``key``."""
    return int.from_bytes(blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class HashRing:
    """A consistent-hash ring over worker ids.

    Not thread-safe by itself; the supervisor serializes membership
    changes and routing reads behind its registry lock.
    """

    def __init__(self):
        self._workers: set[str] = set()
        # Sorted, parallel arrays: ring position -> owning worker id.
        self._points: list[int] = []
        self._owners: list[str] = []

    # ------------------------------------------------------------ membership
    def add(self, worker_id: str) -> None:
        """Add ``worker_id``'s virtual nodes; duplicate ids are an error."""
        if not worker_id:
            raise FleetError("worker id must be a non-empty string")
        if worker_id in self._workers:
            raise FleetError(f"worker {worker_id!r} is already on the ring")
        self._workers.add(worker_id)
        for i in range(VNODES):
            point = _point(f"{worker_id}#{i}")
            index = bisect_right(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, worker_id)

    def remove(self, worker_id: str) -> None:
        """Remove ``worker_id``; its arcs fall to the next worker clockwise."""
        if worker_id not in self._workers:
            raise FleetError(f"worker {worker_id!r} is not on the ring")
        self._workers.discard(worker_id)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != worker_id
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def workers(self) -> list[str]:
        return sorted(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    # --------------------------------------------------------------- routing
    def route(self, project: str) -> str:
        """The worker id owning ``project`` (first ring point clockwise)."""
        if not self._points:
            raise FleetError("cannot route: the ring has no workers")
        index = bisect_right(self._points, _point(project))
        if index == len(self._points):  # wrap past the top of the keyspace
            index = 0
        return self._owners[index]

    def assignments(self, projects: list[str]) -> dict[str, str]:
        """``{project: worker_id}`` for each of ``projects``."""
        return {project: self.route(project) for project in projects}
