"""T10 — Record path: logging throughput and the commit cache.

Two measurements of the write path rebuilt by the ``repro.runtime``
subsystem:

* **Staging throughput** — raw ``flor.log`` calls per second against a plain
  ``list.append`` baseline.  The record path stages a tuple per call and
  defers value encoding, so the instrumented loop should stay within a small
  constant factor of the floor.
* **Snapshot-cache commits** — per-epoch ``commit()`` over unchanged tracked
  files reuses cached object ids instead of re-reading and re-hashing every
  tracked byte.
"""

from __future__ import annotations

import os
import time

from conftest import report

from repro import ProjectConfig, Session
from repro.versioning.repository import Repository

STAGE_CALLS = 20_000


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_staging_throughput(benchmark, make_session):
    session = make_session("t10_stage", default_filename="train.py")

    def baseline() -> list:
        sink = []
        for i in range(STAGE_CALLS):
            sink.append(("metric", i * 0.001))
        return sink

    def instrumented() -> None:
        for i in range(STAGE_CALLS):
            session.log("metric", i * 0.001)

    baseline_seconds = _time(baseline)
    staged_seconds = benchmark.pedantic(
        lambda: _time(instrumented), rounds=1, iterations=1
    )
    flush_seconds = _time(session.flush)
    logs_per_second = STAGE_CALLS / staged_seconds if staged_seconds else float("inf")
    report(
        "T10: staging throughput",
        [
            {
                "calls": STAGE_CALLS,
                "baseline_s": baseline_seconds,
                "staged_s": staged_seconds,
                "flush_s": flush_seconds,
                "logs_per_sec": logs_per_second,
                "vs_baseline_x": staged_seconds / baseline_seconds if baseline_seconds else 0.0,
            }
        ],
    )
    assert session.logs.count() == STAGE_CALLS
    # Conservative floor: staging must stay far above per-call SQLite rates.
    assert logs_per_second > 20_000


def test_snapshot_cache_accelerates_per_epoch_commits(benchmark, tmp_path):
    config = ProjectConfig(tmp_path / "t10_commit", "t10_commit").ensure_layout()
    tracked = []
    for i in range(20):
        path = config.root / f"module_{i:02d}.py"
        path.write_text("\n".join(f"def fn_{j}(): return {j}" for j in range(200)))
        old = time.time() - 3600
        os.utime(path, (old, old))
        tracked.append(path.name)

    with Session(config, default_filename="train.py") as session:
        session.track(*tracked)
        repo: Repository = session.repository

        def cold_commit() -> None:
            repo._hash_cache.clear()
            session.log("epoch", 0)
            session.commit("cold")

        def warm_commit() -> None:
            session.log("epoch", 1)
            session.commit("warm")

        cold_seconds = _time(cold_commit)
        warm_runs = 5
        warm_seconds = benchmark.pedantic(
            lambda: _time(lambda: [warm_commit() for _ in range(warm_runs)]) / warm_runs,
            rounds=1,
            iterations=1,
        )
        speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
        report(
            "T10: per-epoch commit (snapshot cache)",
            [
                {
                    "tracked_files": len(tracked),
                    "cold_commit_s": cold_seconds,
                    "warm_commit_s": warm_seconds,
                    "speedup_x": speedup,
                    "cache_hits": repo.snapshot_stats["hits"],
                    "cache_misses": repo.snapshot_stats["misses"],
                }
            ],
        )
        assert repo.snapshot_stats["hits"] >= len(tracked)  # warm commits hit
