#!/usr/bin/env python
"""End-to-end smoke test of the observability plane over real sockets.

What CI runs (and any developer can run locally):

1. boot a real ``repro serve --access-log`` on an ephemeral port;
2. ingest a batch, then tail ``GET /projects/<name>/tail`` through
   ``HttpClient.stream`` (the reader the router relays streams with) and
   assert the sealed rows arrive as SSE frames with ``logs.seq`` ids;
3. ingest more while the tail is open and assert the new rows arrive
   live on the same connection;
4. reconnect with ``Last-Event-ID`` and assert the stream resumes after
   the cursor — no duplicates, no gap;
5. read ``GET /service/telemetry`` before and after the ingest and
   assert the counters actually moved;
6. check the counters agree across scopes: the telemetry feed's
   ``pool.*`` / ``flush.*`` / ``cache.*`` equal the ``/service/stats`` pool
   block and the sums of the per-project ``/stats`` blocks;
7. render one ``repro monitor --once`` frame against the live server;
8. SIGTERM the server and assert the structured access log recorded the
   requests (``method path status latency_ms tenant``);
9. boot ``repro serve --workers 2``, ingest to one project per worker and
   repeat the agreement check through the router's fan-in.

Exits non-zero with a diagnostic on any failure.  Usage::

    PYTHONPATH=src python tools/obs_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.testing import FleetProcess, ServerProcess  # noqa: E402
from repro.webapp.framework import SSEEvent, iter_sse_events  # noqa: E402

BATCH = 6
READ_TIMEOUT = 15.0

#: ``/projects/<n>/stats`` block → telemetry prefix, and the fields whose
#: counter is not simply ``<prefix>.<field>``.  ``max_coalesced_batches`` is
#: each flusher's own high-water mark, which has no process-wide sum.
_SHARD_BLOCKS = {"flusher": "flush", "query_cache": "cache"}
_RENAMED = {"written_rows": "rows", "wal_checkpoints": "checkpoints"}
_UNSUMMED = {"max_coalesced_batches"}


def _ingest(server: ServerProcess, project: str, tag: str) -> None:
    body = server.post(
        f"/projects/{project}/logs",
        {
            "filename": "train.py",
            "records": [
                {"name": "metric", "value": f"{tag}.r{i}", "ctx_id": i}
                for i in range(BATCH)
            ],
        },
    )
    if body["queued"] != BATCH:
        raise AssertionError(f"queued {body['queued']} of {BATCH} records")


def _seal(server: ServerProcess, project: str) -> None:
    server.get(f"/projects/{project}/dataframe?names=metric")


def _check_agreement(server: ServerProcess, projects: list[str]) -> int:
    """The three routes read one set of counters at three scopes.

    Call after a seal (nothing in flight) on a server that has evicted
    nothing, so every shard that ever counted still answers ``/stats``.
    The per-project reads come first: each checks its shard out once, and a
    checkout of an open shard is itself a ``pool.hits``.
    Returns how many counters were compared.
    """
    shards = [server.get(f"/projects/{project}/stats") for project in projects]
    pool = server.get("/service/stats")["pool"]
    counters = server.get("/service/telemetry")["counters"]
    if pool["evictions"]:
        raise AssertionError(f"the smoke evicted shards; sums would miss them: {pool}")
    expected = {f"pool.{field}": value for field, value in pool.items()}
    for block, prefix in _SHARD_BLOCKS.items():
        for field in shards[0][block]:
            if field not in _UNSUMMED:
                name = f"{prefix}.{_RENAMED.get(field, field)}"
                expected[name] = sum(shard[block][field] for shard in shards)
    wrong = {
        name: {"telemetry": counters.get(name), "stats": value}
        for name, value in expected.items()
        if counters.get(name) != value
    }
    if wrong:
        raise AssertionError(f"telemetry and stats routes disagree: {wrong}")
    return len(expected)


def _open_tail(server: ServerProcess, project: str, last_event_id: int = 0):
    """An SSE subscription on its own connection: the stream and its events."""
    headers = {"Accept": "text/event-stream"}
    if last_event_id:
        headers["Last-Event-ID"] = str(last_event_id)
    stream = server.client.stream(f"/projects/{project}/tail?keepalive=1.0", headers=headers)
    if stream.status != 200:
        raise AssertionError(f"tail answered {stream.status}: {stream.read()!r}")
    content_type = stream.headers.get("Content-Type", "")
    if "text/event-stream" not in content_type:
        raise AssertionError(f"tail Content-Type is {content_type!r}")
    return stream, iter_sse_events(stream.chunks())


def _read_events(events: Iterator[SSEEvent], count: int) -> list[SSEEvent]:
    """The next ``count`` SSE events (keepalive comments are skipped)."""
    deadline = time.monotonic() + READ_TIMEOUT
    read: list[SSEEvent] = []
    while len(read) < count:
        if time.monotonic() > deadline:
            raise AssertionError(f"read {len(read)} of {count} events before timeout")
        event = next(events, None)
        if event is None:
            raise AssertionError(f"stream ended after {len(read)} of {count} events")
        read.append(event)
    return read


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="flor-obs-smoke-") as tmp:
        root = Path(tmp) / "host"
        with ServerProcess(root, extra_args=("--access-log",)) as server:
            print(f"server up at {server.base_url} (access log on)")

            _ingest(server, "alpha", "pre")
            _seal(server, "alpha")

            stream, events = _open_tail(server, "alpha")
            backlog = _read_events(events, BATCH)
            ids = [int(e.id) for e in backlog]
            if ids != list(range(1, BATCH + 1)):
                print(f"FAIL: backlog ids {ids}", file=sys.stderr)
                return 1
            print(f"the tail delivered the {BATCH}-row backlog, ids {ids[0]}..{ids[-1]}")

            _ingest(server, "alpha", "live")
            _seal(server, "alpha")
            live = _read_events(events, BATCH)
            live_ids = [int(e.id) for e in live]
            if live_ids != list(range(BATCH + 1, 2 * BATCH + 1)):
                print(f"FAIL: live ids {live_ids}", file=sys.stderr)
                return 1
            stream.close()
            print(f"rows ingested mid-stream arrived live, ids {live_ids[0]}..{live_ids[-1]}")

            cursor = live_ids[2]
            stream, events = _open_tail(server, "alpha", last_event_id=cursor)
            resumed = _read_events(events, 2 * BATCH - cursor)
            resumed_ids = [int(e.id) for e in resumed]
            if resumed_ids != list(range(cursor + 1, 2 * BATCH + 1)):
                print(f"FAIL: resume from {cursor} gave {resumed_ids}", file=sys.stderr)
                return 1
            stream.close()
            print(f"Last-Event-ID {cursor} resumed at {resumed_ids[0]} — no gap, no duplicate")

            telemetry = server.get("/service/telemetry")
            if telemetry["counters"].get("flush.rows", 0) < 2 * BATCH:
                print(f"FAIL: flush.rows stuck at {telemetry['counters']}", file=sys.stderr)
                return 1
            if telemetry["tail"]["subscribed_total"] < 2:
                print(f"FAIL: tail stats {telemetry['tail']}", file=sys.stderr)
                return 1
            if "flush.ms" not in telemetry["histograms"]:
                print("FAIL: no flush.ms histogram in telemetry", file=sys.stderr)
                return 1
            print(
                f"telemetry moved: flush.rows={telemetry['counters']['flush.rows']:.0f}, "
                f"subscribed_total={telemetry['tail']['subscribed_total']}"
            )

            compared = _check_agreement(server, ["alpha"])
            print(f"telemetry agrees with /service/stats and /projects/alpha/stats on {compared} counters")

            env = {**os.environ}
            env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            monitor = subprocess.run(
                [sys.executable, "-m", "repro.cli", "monitor", "--once", "--url", server.base_url],
                capture_output=True,
                text=True,
                timeout=30,
                env=env,
            )
            if monitor.returncode != 0 or "flush.rows" not in monitor.stdout:
                print(f"FAIL: repro monitor --once: {monitor.stdout}{monitor.stderr}", file=sys.stderr)
                return 1
            print("repro monitor --once rendered a frame:")
            for line in monitor.stdout.strip().splitlines()[:4]:
                print(f"  {line}")

            code = server.terminate()
            output = server.process.stdout.read() if server.process.stdout else ""
            if code != 0:
                print(f"FAIL: server exited {code} after SIGTERM", file=sys.stderr)
                return 1
            access_lines = [
                line
                for line in output.splitlines()
                if line.startswith(("POST /projects/alpha/logs", "GET /service/telemetry"))
            ]
            if not access_lines:
                print(f"FAIL: no access-log lines in output:\n{output}", file=sys.stderr)
                return 1
            parts = access_lines[0].split()
            if len(parts) != 5 or parts[2] not in ("200", "202"):
                print(f"FAIL: malformed access-log line {access_lines[0]!r}", file=sys.stderr)
                return 1
            print(f"access log recorded {len(access_lines)} request lines, e.g. {access_lines[0]!r}")

        with FleetProcess(Path(tmp) / "fleet", workers=2) as fleet:
            placed = fleet.projects_on_distinct_workers(2)
            for project in placed:
                _ingest(fleet, project, "fleet")
                _seal(fleet, project)
            compared = _check_agreement(fleet, list(placed))
            print(
                f"router fan-in agrees with the workers' stats on {compared} counters "
                f"({', '.join(f'{p}->{w}' for p, w in placed.items())})"
            )
            if fleet.terminate() != 0:  # graceful: the supervisor drains its workers
                print("FAIL: fleet did not exit 0 after SIGTERM", file=sys.stderr)
                return 1

    print("obs smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
