"""Replay plans and script re-execution.

Replay is how hindsight logging materializes metadata that was never logged:
the (possibly patched) historical source of a script is executed again under
a replay-mode :class:`~repro.core.session.Session` that is pinned to the
original run's timestamp.  The :class:`ReplayPlan` controls differential
execution — which loop iterations actually run — and the session restores
checkpoints to skip over the rest.

A replay reads its recorded run once (the session's snapshot of that run's
log and loop rows) and nothing else of the project, through the caller's
``db`` (and ``repository``, when given): what one replay costs does not
depend on how many other versions the project holds.  It writes nothing,
whatever the replayed script calls: a replay session's ``flush()`` and
``commit()`` are no-ops, so ``flor.dataframe`` / ``flor.sql`` inside the
script see the durable state (not the rows staged so far) and the
hindsight engine lands the records a replay hands back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..config import ProjectConfig
from ..relational.database import Database
from ..versioning.repository import Repository
from .session import REPLAY, Session, active_session


@dataclass(frozen=True)
class ReplayPlan:
    """Selects which loop iterations execute during replay.

    ``selections`` maps loop name to a frozenset of iteration indices to
    execute; loops not mentioned execute fully.  An empty plan (no entries)
    therefore replays everything, which is the correct default when a new
    log statement could fire anywhere.
    """

    selections: Mapping[str, frozenset[int]] = field(default_factory=dict)

    @classmethod
    def all(cls) -> "ReplayPlan":
        """Replay every iteration of every loop."""
        return cls({})

    @classmethod
    def only(cls, **loops: Any) -> "ReplayPlan":
        """Restrict named loops to the given iterations.

        ``ReplayPlan.only(epoch=[7])`` executes only epoch 7 (restoring the
        checkpoint taken after epoch 6 if one exists); ``ReplayPlan.only(
        epoch=range(8, 10), step=[0])`` composes across nesting levels.
        """
        selections = {name: frozenset(int(i) for i in iters) for name, iters in loops.items()}
        return cls(selections)

    def selects(self, loop_name: str, iteration: int) -> bool:
        chosen = self.selections.get(loop_name)
        return True if chosen is None else iteration in chosen

    def is_total(self) -> bool:
        return not self.selections

    def to_dict(self) -> dict[str, list[int]]:
        return {name: sorted(v) for name, v in self.selections.items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | None) -> "ReplayPlan":
        if not data:
            return cls.all()
        return cls({name: frozenset(int(i) for i in iters) for name, iters in data.items()})


@dataclass
class ReplayResult:
    """Outcome of replaying one historical run of one script."""

    tstamp: str
    filename: str
    new_log_records: int = 0
    iterations_executed: int = 0
    iterations_skipped: int = 0
    checkpoints_restored: int = 0
    wall_seconds: float = 0.0
    error: str | None = None
    pending_logs: list = field(default_factory=list, repr=False)
    pending_loops: list = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def replay_source(
    source: str,
    *,
    config: ProjectConfig,
    filename: str,
    tstamp: str,
    db: Database,
    repository: Repository | None = None,
    plan: ReplayPlan | None = None,
    extra_globals: Mapping[str, Any] | None = None,
) -> ReplayResult:
    """Execute ``source`` under a replay session pinned to ``(tstamp, filename)``.

    The executed namespace receives a ``flor`` binding to the facade so both
    ``import``-style and injected-name usage hit the replay session.  The
    newly produced records come back on the result (``pending_logs`` /
    ``pending_loops``) for the caller to land.  Pass the caller's
    ``repository`` along with its ``db``: a replay never reads the version
    store, and opening a second one costs a journal load.
    """
    from .api import flor as flor_facade  # local import to avoid a cycle

    session = Session(
        config,
        db=db,
        repository=repository,
        mode=REPLAY,
        default_filename=filename,
        replay_tstamp=tstamp,
        replay_plan=plan,
    )
    result = ReplayResult(tstamp=tstamp, filename=filename)
    started = time.perf_counter()
    namespace = {"__name__": "__flor_replay__", "__file__": filename, "flor": flor_facade}
    namespace.update(extra_globals or {})
    try:
        with active_session(session):
            exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - project code by design
    except Exception as exc:  # a SyntaxError of the patched source included
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_seconds = time.perf_counter() - started
    result.new_log_records = session.pending_log_records
    result.iterations_executed = session.replay_stats["iterations_executed"]
    result.iterations_skipped = session.replay_stats["iterations_skipped"]
    result.checkpoints_restored = session.replay_stats["checkpoints_restored"]
    result.pending_logs, result.pending_loops = session.take_pending_records()
    return result


def replay_worker(args: tuple) -> ReplayResult:
    """Process-pool entry point for parallel multiversion replay.

    ``args`` is ``(root, projid, db_path, source, filename, tstamp, plan_dict)``
    — all picklable.  The worker opens its own database handle (and version
    store), replays and ships the new records back to the parent, which is
    the sole writer.
    """
    root, projid, db_path, source, filename, tstamp, plan_dict = args
    config = ProjectConfig(root, projid)
    db = Database(db_path)
    try:
        return replay_source(
            source,
            config=config,
            filename=filename,
            tstamp=tstamp,
            db=db,
            plan=ReplayPlan.from_dict(plan_dict),
        )
    except Exception as exc:  # pragma: no cover - worker crash safety net
        return ReplayResult(tstamp=tstamp, filename=filename, error=f"{type(exc).__name__}: {exc}")
    finally:
        db.close()
