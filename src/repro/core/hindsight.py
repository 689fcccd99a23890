"""Multiversion hindsight logging.

The :class:`HindsightEngine` is the orchestration layer that turns "I wish I
had logged X" into data: given the latest source of a script (containing the
newly added logging statements), it walks every prior version epoch recorded
in ``ts2vid``, propagates the new statements into that version's source,
replays the run differentially, and merges the newly materialized records
into the database — each one attributed to the *original* run timestamp, so
``flor.dataframe`` immediately shows the new column across all of history.

Replay across versions is embarrassingly parallel; the engine supports
serial, thread-pool and process-pool execution (benchmark T4 measures the
scaling shape).  The three modes differ only in where the replays run: each
replay collects its new records (already deduplicated against its own run —
two tasks never share a tstamp), and the engine lands them all through its
session in one transaction per :meth:`~HindsightEngine.backfill` call,
durable before the call returns.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ReplayError
from .propagation import PropagationResult, propagate_statements
from .replay import ReplayPlan, ReplayResult, replay_source, replay_worker
from .session import Session


@dataclass
class VersionBackfill:
    """Per-version outcome of a hindsight backfill."""

    vid: str
    tstamp: str
    filename: str
    injected_statements: int = 0
    skipped_statements: int = 0
    replay: ReplayResult | None = None
    error: str | None = None
    #: Full propagation outcome (patch plan, anchors, dropped statements),
    #: kept so dry runs can report the plan without executing any replay.
    propagation: PropagationResult | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and (self.replay is None or self.replay.ok)


@dataclass
class BackfillReport:
    """Aggregate outcome of one :meth:`HindsightEngine.backfill` call."""

    filename: str
    versions: list[VersionBackfill] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def new_records(self) -> int:
        return sum(v.replay.new_log_records for v in self.versions if v.replay is not None)

    @property
    def versions_replayed(self) -> int:
        return sum(1 for v in self.versions if v.replay is not None and v.replay.ok)

    @property
    def iterations_executed(self) -> int:
        return sum(v.replay.iterations_executed for v in self.versions if v.replay is not None)

    @property
    def iterations_skipped(self) -> int:
        return sum(v.replay.iterations_skipped for v in self.versions if v.replay is not None)

    def summary(self) -> dict[str, int | float]:
        return {
            "versions": len(self.versions),
            "versions_replayed": self.versions_replayed,
            "new_records": self.new_records,
            "iterations_executed": self.iterations_executed,
            "iterations_skipped": self.iterations_skipped,
            "wall_seconds": round(self.wall_seconds, 6),
        }


class HindsightEngine:
    """Coordinates propagation + replay across all prior versions of a script."""

    def __init__(self, session: Session):
        self.session = session

    # ------------------------------------------------------------- inventory
    def version_epochs(self, filename: str) -> list[tuple[str, str]]:
        """``(vid, tstamp)`` pairs of epochs whose version contains ``filename``.

        Epochs are returned oldest-first.  The timestamp is the epoch start
        (``ts_start``), which is the tstamp stamped on that epoch's records.
        """
        self.session.flush()
        epochs: list[tuple[str, str]] = []
        for record in self.session.ts2vid.all(self.session.projid):
            if self.session.repository.file_exists(record.vid, filename):
                epochs.append((record.vid, record.ts_start))
        return epochs

    def historical_source(self, vid: str, filename: str) -> str:
        return self.session.repository.read_file(vid, filename)

    # -------------------------------------------------------------- backfill
    def backfill(
        self,
        filename: str,
        new_source: str | None = None,
        *,
        versions: list[str] | None = None,
        plan: ReplayPlan | None = None,
        parallelism: str = "serial",
        max_workers: int = 4,
        include_latest: bool = True,
        extra_globals: dict | None = None,
        dry_run: bool = False,
    ) -> BackfillReport:
        """Propagate the latest logging statements into prior versions and replay.

        Parameters
        ----------
        filename:
            Script to backfill (path relative to the project root, as stored
            in the version repository and stamped on records).
        new_source:
            Source containing the new logging statements.  Defaults to the
            file's current contents in the working directory.
        versions:
            Restrict to these version ids; default is every epoch that
            contains the file.
        plan:
            Replay plan (differential execution).  Default replays all
            iterations, which is required when the new statement could fire
            in any iteration.
        parallelism:
            ``"serial"``, ``"thread"`` or ``"process"``.
        include_latest:
            Whether to also replay the most recent epoch (it usually already
            has the values, but replaying keeps the view complete when the
            statements were added after its run).
        dry_run:
            Stop after propagation: the report carries each version's patch
            plan (statements injected, anchors, statements dropped as
            unparseable) on ``VersionBackfill.propagation`` but nothing is
            replayed and no records are written.
        """
        started = time.perf_counter()
        if new_source is None:
            path = self.session.config.root / filename
            if not path.exists():
                raise ReplayError(f"no working-copy source for {filename}; pass new_source")
            new_source = path.read_text()
        epochs = self.version_epochs(filename)
        if versions is not None:
            # An explicit version list asks for each *version* once.  A no-op
            # commit maps a fresh epoch onto its parent's vid, so membership
            # alone would replay that vid once per epoch — double-writing its
            # records and breaking the job executor's exactly-once checkpoint
            # contract.  Keep the oldest epoch per requested vid.
            wanted = set(versions)
            first_epoch: dict[str, str] = {}
            for vid, ts in epochs:
                if vid in wanted and vid not in first_epoch:
                    first_epoch[vid] = ts
            epochs = [(vid, ts) for vid, ts in epochs if first_epoch.get(vid) == ts]
        if not include_latest and epochs:
            epochs = epochs[:-1]
        report = BackfillReport(filename=filename)
        if not epochs:
            report.wall_seconds = time.perf_counter() - started
            return report

        tasks: list[tuple[VersionBackfill, str]] = []
        for vid, tstamp in epochs:
            entry = VersionBackfill(vid=vid, tstamp=tstamp, filename=filename)
            try:
                old_source = self.historical_source(vid, filename)
                propagation: PropagationResult = propagate_statements(old_source, new_source)
                entry.injected_statements = propagation.injected_count
                entry.skipped_statements = len(propagation.skipped)
                entry.propagation = propagation
                tasks.append((entry, propagation.patched_source))
            except Exception as exc:
                entry.error = f"{type(exc).__name__}: {exc}"
            report.versions.append(entry)

        if not dry_run:
            self._execute(tasks, plan or ReplayPlan.all(), parallelism, max_workers, extra_globals)
        report.wall_seconds = time.perf_counter() - started
        return report

    # -------------------------------------------------------------- execution
    def _execute(
        self,
        tasks: list[tuple[VersionBackfill, str]],
        plan: ReplayPlan,
        parallelism: str,
        max_workers: int,
        extra_globals: dict | None,
    ) -> None:
        if parallelism not in {"serial", "thread", "process"}:
            raise ReplayError(f"unknown parallelism mode: {parallelism!r}")

        def replay_one(task: tuple[VersionBackfill, str]) -> ReplayResult:
            entry, source = task
            return replay_source(
                source,
                config=self.session.config,
                filename=entry.filename,
                tstamp=entry.tstamp,
                db=self.session.db,
                repository=self.session.repository,
                plan=plan,
                extra_globals=extra_globals,
                collect_only=True,
            )

        if parallelism == "serial" or len(tasks) <= 1:
            results = [replay_one(task) for task in tasks]
        elif parallelism == "thread":
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                results = list(pool.map(replay_one, tasks))
        else:
            # Process pool: ship picklable task tuples; workers open their own
            # database handle and version store.
            worker_args = [
                (
                    str(self.session.config.root),
                    self.session.projid,
                    self.session.db.path,
                    source,
                    entry.filename,
                    entry.tstamp,
                    plan.to_dict(),
                )
                for entry, source in tasks
            ]
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                results = list(pool.map(replay_worker, worker_args))
        new_logs, new_loops = [], []
        for (entry, _), result in zip(tasks, results):
            entry.replay = result
            if result.ok:
                new_logs.extend(result.pending_logs)
                new_loops.extend(result.pending_loops)
        self.session.write_records(new_logs, new_loops)
