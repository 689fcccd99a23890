"""Multiversion hindsight logging.

The :class:`HindsightEngine` turns "I wish I had logged X" into data, and it
alone decides three things.  **Plan** — which recorded runs of a script a
backfill replays (:meth:`~HindsightEngine.version_epochs`; the job executor
asks for this plan and keeps none of its own).  **Run and land** — propagate
the newly added logging statements into each run's historical source
(:meth:`~HindsightEngine.backfill`) or take it as recorded
(:meth:`~HindsightEngine.replay`), replay differentially, and write what the
replays collected through the session in one transaction per call, durable
on return — each record under the *original* run's timestamp, so
``flor.dataframe`` shows the new column across all of history.  **Report** —
one :class:`VersionBackfill` per replayed run.

Replays are embarrassingly parallel; serial, thread-pool and process-pool
execution (benchmark T4) differ only in where they run.  A replay never
writes — its session has no write path, so a script that ends in
``flor.commit()`` replays like one that does not: it returns its new
records, deduplicated against its own run.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

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
    """Plans, runs and lands the replays of a script's recorded runs."""

    def __init__(self, session: Session):
        self.session = session

    # --------------------------------------------------------------- planner
    def version_epochs(
        self, filename: str, versions: list[str] | None = None, include_latest: bool = True
    ) -> list[tuple[str, str]]:
        """The replay plan: ``(vid, tstamp)`` of every recorded run of ``filename``.

        Oldest first; ``tstamp`` is the epoch start, the stamp on that run's
        records.  An epoch is a run of the file iff its version contains the
        file *and* ``logs`` or ``loops`` holds a row stamped with that epoch
        and filename.  An epoch without one is not a run of it: it cannot be
        told apart from another entry point's commit, and it has no recorded
        ``flor.arg`` / loop context to replay under.  A version committed
        several times unchanged has one run per epoch.  ``versions`` keeps
        the runs of those version ids; ``include_latest=False`` drops the
        file's newest run whatever ``versions`` selects, so per-version
        calls add up to the unrestricted one.
        """
        session = self.session
        session.flush()
        wanted = None if versions is None else {str(vid) for vid in versions}
        rows = session.ts2vid.runs_of(session.projid, filename, wanted if include_latest else None)
        runs = [run for run in rows if session.repository.file_exists(run[0], filename)]
        if not include_latest:
            runs = [run for run in runs[:-1] if wanted is None or run[0] in wanted]
        return runs

    def plan_versions(self, filename: str, *selection) -> list[str]:
        """Distinct vids of the plan ``version_epochs(filename, *selection)``, oldest run first."""
        return list(dict.fromkeys(vid for vid, _ts in self.version_epochs(filename, *selection)))

    def historical_source(self, vid: str, filename: str) -> str:
        return self.session.repository.read_file(vid, filename)

    def working_source(self, filename: str) -> str:
        """The working copy of ``filename`` — what a backfill propagates by default."""
        path = self.session.config.root / filename
        if not path.exists():
            raise ReplayError(f"no working-copy source for {filename}; pass new_source")
        return path.read_text()

    # ---------------------------------------------------------- entry points
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
            Restrict to every recorded run of these version ids; default is
            every recorded run of the file (see :meth:`version_epochs`).
        plan:
            Replay plan (differential execution).  Default replays all
            iterations, which is required when the new statement could fire
            in any iteration.
        parallelism:
            ``"serial"``, ``"thread"`` or ``"process"``.
        include_latest:
            Whether to also replay the file's most recent run (it usually
            has the values already; replaying keeps the view complete when
            the statements were added after it ran).
        dry_run:
            Stop after propagation: the report carries each run's patch plan
            (statements injected, anchors, statements dropped as unparseable)
            on ``VersionBackfill.propagation``; nothing is replayed or written.
        """
        if new_source is None:
            new_source = self.working_source(filename)
        return self._run(
            filename, new_source, versions=versions, plan=plan, parallelism=parallelism,
            max_workers=max_workers, include_latest=include_latest,
            extra_globals=extra_globals, dry_run=dry_run,
        )

    def replay(self, filename: str, **options) -> BackfillReport:
        """Re-execute each recorded run's own source as recorded — no propagation.

        :meth:`backfill`'s sibling: same keyword options, plan, execution and
        landing, e.g. to regenerate records under a differential ``plan``.
        """
        return self._run(filename, None, **options)

    def _run(
        self, filename, new_source, *, versions=None, plan=None, parallelism="serial",
        max_workers=4, include_latest=True, extra_globals=None, dry_run=False,
    ) -> BackfillReport:
        # Plan, patch (when ``new_source`` is given), execute, land: both entry points.
        started = time.perf_counter()
        report = BackfillReport(filename=filename)
        tasks: list[tuple[VersionBackfill, str]] = []
        for vid, tstamp in self.version_epochs(filename, versions, include_latest):
            entry = VersionBackfill(vid=vid, tstamp=tstamp, filename=filename)
            try:
                source = self.historical_source(vid, filename)
                if new_source is not None:
                    propagation = propagate_statements(source, new_source)
                    entry.injected_statements = propagation.injected_count
                    entry.skipped_statements = len(propagation.skipped)
                    entry.propagation = propagation
                    source = propagation.patched_source
                tasks.append((entry, source))
            except Exception as exc:
                entry.error = f"{type(exc).__name__}: {exc}"
            report.versions.append(entry)

        if tasks and not dry_run:
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
