"""Tail chaos: SIGKILL the owning worker mid-stream, reconnect, no gaps.

The in-process tests prove a tail survives shard eviction and drain
seals.  This one proves the last leg of the exactly-once story from the
docs: a *fleet worker dying mid-stream*.  The router deliberately does
not fail over mid-stream (it could re-frame rows the subscriber already
consumed); instead the relay ends cleanly, the subscriber keeps its
``Last-Event-ID`` cursor, and reconnects once the supervisor has
restarted the worker — the backfill resumes from the cursor with every
sealed row delivered exactly once.
"""

from __future__ import annotations

from urllib.parse import quote

from repro.fleet.transport import HttpClient
from repro.testing import FleetProcess


def _post_metrics(fleet: FleetProcess, project: str, values: list[str]) -> None:
    fleet.post(
        f"/projects/{project}/logs",
        {
            "filename": "train.py",
            "records": [
                {"name": "metric", "value": value, "ctx_id": 0} for value in values
            ],
        },
    )


def _seal(fleet: FleetProcess, project: str) -> None:
    """Force the async flusher to commit: every read flushes first."""
    fleet.get(f"/projects/{project}/dataframe?names=metric")


def _watermark(fleet: FleetProcess, project: str) -> int:
    query = quote("SELECT MAX(seq) AS max_seq FROM logs")
    body = fleet.get(f"/projects/{project}/sql?q={query}")
    return int(body["records"][0]["max_seq"])


class TestTailSurvivesWorkerKill:
    def test_reconnect_with_cursor_delivers_every_row_exactly_once(self, tmp_path):
        with FleetProcess(tmp_path / "root", workers=2) as fleet:
            project = "alpha"
            _post_metrics(fleet, project, [f"b0.r{r}" for r in range(8)])
            _seal(fleet, project)
            assert _watermark(fleet, project) == 8
            victim = fleet.resolve(project)

            seen: list[int] = []
            with HttpClient(fleet.base_url, timeout=10.0) as client:
                # Leg 1: stream through the router, consume a few events,
                # then SIGKILL the worker that owns the shard mid-stream.
                stream = client.stream(f"/projects/{project}/tail?keepalive=0.2")
                assert stream.ok
                sse = stream.sse()
                for event in sse.events(max_events=4, timeout=30):
                    seen.append(int(event.id))
                assert seen == [1, 2, 3, 4]

                old_pid = fleet.kill_worker9(victim)
                # The relay must end cleanly — whatever was already in
                # flight arrives, then EOF.  No exception, no retry that
                # could duplicate frames.
                for event in sse.events(timeout=30):
                    if event.event == "log":
                        seen.append(int(event.id))
                sse.close()

                recovery = fleet.wait_worker_recovered(victim, old_pid, timeout=60.0)
                assert recovery < 60.0
                assert fleet.resolve(project) == victim

                # More rows land after the restart; the shard file survived
                # the kill, so sequence numbers continue where they left off.
                _post_metrics(fleet, project, [f"b1.r{r}" for r in range(4)])
                _seal(fleet, project)
                assert _watermark(fleet, project) == 12

                # Leg 2: reconnect with the cursor.  The backfill starts at
                # seen[-1] + 1 — nothing replayed, nothing skipped.
                stream = client.stream(
                    f"/projects/{project}/tail?keepalive=0.2",
                    headers={"Last-Event-ID": str(seen[-1])},
                )
                assert stream.ok
                sse = stream.sse()
                for event in sse.events(max_events=12 - len(seen), timeout=30):
                    seen.append(int(event.id))
                sse.close()

            assert seen == list(range(1, 13)), f"gap or duplicate in {seen}"
            assert fleet.terminate() == 0
