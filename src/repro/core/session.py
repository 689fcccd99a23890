"""The runtime behind every ``flor.*`` call.

A :class:`Session` owns the project database, the version repository and the
checkpoint manager, and implements both execution modes:

* **record** — the normal mode: log statements append to a buffer that is
  handed to the session's background flusher on ``commit()`` (or when a
  dataframe is requested, or once enough have accumulated), loops allocate
  fresh context ids, and the checkpoint policy decides when to serialize
  registered objects — on the checkpoint writer's thread.
* **replay** — used by hindsight logging: the session is pinned to a
  historical ``(tstamp, filename)`` run, loops re-use the recorded context
  ids, iterations outside the replay plan are skipped (restoring the nearest
  checkpoint when needed), ``flor.arg`` returns historical values, and newly
  logged values are attributed to the historical timestamp.  A replay
  session *stages and never writes*: ``flush()`` and ``commit()`` are
  no-ops, so the new rows wait in the buffer for
  :meth:`Session.take_pending_records` and whoever replays (the hindsight
  engine) lands them through the recording session's flusher.  The recorded
  run is read once — its log rows when the session opens, its loop rows on
  the first loop of each file — so a replay costs the same number of
  statements however many other runs the project holds.

Sessions are activated on a stack so that exec'd replay scripts and nested
tools always reach the intended runtime through the module-level facade.
"""

from __future__ import annotations

import atexit
import os
import sys
import sysconfig
import time
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..config import ProjectConfig
from ..errors import RecordingError, ReplayError
from ..obs.metrics import MetricsRegistry
from ..relational.database import Database
from ..relational.records import LogRecord, LoopRecord, Ts2VidRecord
from ..storage.protocols import RelationalStore
from ..relational.repositories import (
    BuildDepRepository,
    LogRepository,
    LoopRepository,
    ObjectRepository,
    Ts2VidRepository,
)
from ..runtime import (
    AsyncCheckpointWriter,
    BackgroundFlusher,
    FlushCallbackError,
    RecordBuffer,
)
from ..versioning.repository import Commit, Repository
from .checkpoint import CheckpointKey, CheckpointManager, CheckpointPolicy
from .context import (
    TOP_LEVEL_CTX,
    ContextState,
    TimestampGenerator,
    stringify_iteration_value,
)

_PACKAGE_DIR = str(Path(__file__).resolve().parent.parent)
_STDLIB_DIR = sysconfig.get_paths()["stdlib"]

_timestamps = TimestampGenerator()


@lru_cache(maxsize=4096)
def _classify_user_file(candidate: str) -> str | None:
    """Basename of ``candidate`` if it is user code, else None.

    Files inside this package or the standard library are library plumbing
    and never the logging origin.  The result is cached because resolving a
    path touches the filesystem and hot loops ask about the same few files.
    """
    resolved = str(Path(candidate).resolve())
    if resolved.startswith(_PACKAGE_DIR) or resolved.startswith(_STDLIB_DIR):
        return None
    return Path(candidate).name

RECORD = "record"
REPLAY = "replay"


class Session:
    """One FlorDB runtime bound to a project directory.

    Parameters
    ----------
    config:
        Project configuration; discovered from the working directory when
        omitted.
    mode:
        ``"record"`` (default) or ``"replay"``.
    default_filename:
        Force the filename stamped on records instead of inferring the
        caller's file.  Replay sessions always set this.
    replay_tstamp:
        In replay mode, the historical run timestamp being replayed.
    replay_plan:
        Optional :class:`~repro.core.replay.ReplayPlan` restricting which
        loop iterations execute during replay.
    cli_args:
        Explicit argument mapping consulted by ``arg()`` before falling back
        to ``sys.argv`` and then to defaults.
    """

    def __init__(
        self,
        config: ProjectConfig | None = None,
        *,
        db: "RelationalStore | None" = None,
        repository: Repository | None = None,
        mode: str = RECORD,
        default_filename: str | None = None,
        replay_tstamp: str | None = None,
        replay_plan: "Any | None" = None,
        cli_args: Mapping[str, Any] | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
    ):
        if mode not in (RECORD, REPLAY):
            raise RecordingError(f"unknown session mode: {mode!r}")
        # With both stores injected (e.g. the in-memory service backend)
        # the session never touches disk, so skip materializing the
        # project directory layout.
        self.config = config or ProjectConfig.discover()
        if db is None or repository is None:
            self.config = self.config.ensure_layout()
        self.projid = self.config.projid
        self.mode = mode
        self.db = db if db is not None else Database(self.config.db_path)
        self._owns_db = db is None
        try:
            self.logs = LogRepository(self.db)
            self.loops = LoopRepository(self.db)
            self.ts2vid = Ts2VidRepository(self.db)
            self.objects = ObjectRepository(self.db)
            self.build_deps = BuildDepRepository(self.db)
            # Explicit None-check: an empty Repository is falsy (len() == 0), and
            # an injected fresh repository must not be silently replaced by a
            # disk-backed default.
            self.repository = (
                repository
                if repository is not None
                else Repository(self.config.objects_dir, self.config.root)
            )
            self._buffer = RecordBuffer()
            #: Registry scope of everything this session's workers count (the
            #: flusher, the checkpoint writer, its own pivot cache).  Private to
            #: a bare session; the service pool attaches it to the process's.
            self.metrics = MetricsRegistry()
            # Both workers start their thread at the first submit: a replay
            # session, which never submits to either, never has one.
            self.flusher = BackgroundFlusher(self.db, name=f"flor-flush-{self.projid or 'default'}")
            self.flusher.metrics.attach(self.metrics)
            # Past this many staged records a recording session submits to the
            # flusher opportunistically, overlapping SQLite work with the loop.
            self._stage_threshold = 512
            ckpt_writer = AsyncCheckpointWriter(self.objects)
            ckpt_writer.metrics.attach(self.metrics)
            self.checkpoints = CheckpointManager(
                self.objects, policy=checkpoint_policy, writer=ckpt_writer
            )
            self.default_filename = default_filename
            self._cli_args = dict(cli_args or {})
            self._contexts: dict[str, ContextState] = {}
            self._ckpt_block_depth: dict[str, int] = {}
            # Next auto index per (filename, loop_name) for the current epoch.
            # Record mode only: rows under this session's fresh tstamp can only
            # come from this session, so the counter replaces the flush barrier
            # + database scan that ``iteration(index=None)`` would otherwise
            # need.  Cleared when commit() rotates the timestamp.
            self._loop_iteration_next: dict[tuple[str, str], int] = {}
            self._query_engine: "Any | None" = None
            #: Optional ``(row_count) -> None`` hook, run after each transaction
            #: that wrote this session's rows commits (on the flusher's thread).
            #: The service pool points it at the tail broker, so a
            #: woken subscriber can already read the rows.
            self.on_rows_written: Callable[[int], None] | None = None
            self._replay_plan = replay_plan
            self.replay_stats = {"iterations_executed": 0, "iterations_skipped": 0, "checkpoints_restored": 0}
            # The recorded run of a replay session: its log rows (``log`` probes
            # their keys, ``arg`` reads their values) and, per filename, its loop
            # rows.  Only this run's rows — a replay never rotates ``self.tstamp``.
            self._recorded_logs: list[LogRecord] = []
            self._recorded_loops: dict[str, list[LoopRecord]] = {}
            if mode == REPLAY:
                if not replay_tstamp:
                    raise ReplayError("replay sessions require replay_tstamp")
                self.tstamp = replay_tstamp
                self._recorded_logs = self.logs.by_tstamp(self.projid, replay_tstamp)
            else:
                self.tstamp = _timestamps.next()
            self._existing_log_keys = {
                (r.tstamp, r.filename, r.ctx_id, r.value_name) for r in self._recorded_logs
            }
            self.epoch_start = self.tstamp
        except BaseException:
            # Nothing else holds the handle yet: a failed open (a damaged
            # legacy archive, say) must not leak it to every retry.
            if self._owns_db:
                self.db.close()
            raise

    # ------------------------------------------------------------ bookkeeping
    def close(self) -> None:
        """Flush pending records, stop the write workers, release the database.

        Flush-on-close: staged rows and in-flight checkpoint writes are
        drained before the workers stop, so nothing recorded is ever lost to
        a clean shutdown.  A deferred worker error re-raised by the flush
        still releases every resource (worker threads, the database handle)
        before propagating.
        """
        try:
            self.flush()
        finally:
            try:
                self.checkpoints.close()
            finally:
                try:
                    self.flusher.close()
                finally:
                    if self._owns_db:
                        self.db.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    @property
    def pending_records(self) -> int:
        """Records staged or submitted but not yet durable."""
        return self._buffer.pending + self.flusher.pending_rows

    @property
    def pending_log_records(self) -> int:
        return self._buffer.pending_logs

    @property
    def pending_loop_records(self) -> int:
        return self._buffer.pending_loops

    def take_pending_records(self) -> tuple[list[LogRecord], list[LoopRecord]]:
        """Drain staged records as record objects *without* writing them (how a
        replay hands what it produced to the engine, the sole writer)."""
        return self._buffer.drain_records()

    def stage(self, logs: Iterable[tuple] = (), loops: Iterable[tuple] = ()) -> None:
        """Stage rows built outside ``log``/``loop`` (the service's append route).

        ``logs`` are ``(tstamp, filename, ctx_id, value_name, value)`` and
        ``loops`` are ``(tstamp, filename, ctx_id, parent_ctx_id, loop_name,
        loop_iteration, iteration_value)``; the project id is this
        session's.  The rows wait in the same buffer as ``log`` calls —
        values raw, encoded at drain — until the next :meth:`flush`.  Like
        ``log``, call it from one thread at a time (the service holds the
        shard lock).
        """
        buffer, projid = self._buffer, self.projid
        for row in logs:
            buffer.stage_log(projid, *row)
        for row in loops:
            buffer.stage_loop(projid, *row)

    def write_records(self, logs: Sequence[LogRecord], loops: Sequence[LoopRecord]) -> None:
        """Write records built elsewhere — a backfill's collected replays.

        One transaction through this session's flusher (counted, and
        followed by the same post-commit hooks as a flush), durable on
        return.  Unlike staged rows they are not kept for a retry when the
        write fails: the error propagates and the caller replays again.
        """
        self.flusher.submit(
            [r.as_row() for r in logs],
            [r.as_row() for r in loops],
            on_written=self._note_rows_written,
        )
        self.flusher.drain()

    def _context_for(self, filename: str) -> ContextState:
        if filename not in self._contexts:
            self._contexts[filename] = ContextState(filename=filename)
        return self._contexts[filename]

    def _note_loop_iteration(self, filename: str, loop_name: str, iteration: int) -> None:
        """Advance the epoch-local auto-index high-water mark for one loop."""
        key = (filename, loop_name)
        nxt = iteration + 1
        if nxt > self._loop_iteration_next.get(key, 0):
            self._loop_iteration_next[key] = nxt

    def current_filename(self) -> str:
        """Basename of the file issuing the current flor call.

        Frames inside this library and the standard library are skipped so
        that the *user's* script is recorded, mirroring the paper's "metadata
        captured at time of import".  Path classification is cached because
        hot training loops call this for every ``flor.log``.
        """
        if self.default_filename:
            return self.default_filename
        frame = sys._getframe(1)
        while frame is not None:
            candidate = frame.f_globals.get("__file__")
            if candidate:
                basename = _classify_user_file(candidate)
                if basename is not None:
                    return basename
            frame = frame.f_back
        main_file = getattr(sys.modules.get("__main__"), "__file__", None)
        return Path(main_file).name if main_file else "<interactive>"

    # -------------------------------------------------------------- tracking
    def track(self, *paths: str | Path) -> None:
        """Track source files so that ``commit()`` snapshots them."""
        relative = []
        for path in paths:
            path = Path(path)
            if path.is_absolute():
                try:
                    path = path.relative_to(self.config.root)
                except ValueError as exc:
                    raise RecordingError(
                        f"tracked file {path} must live under the project root {self.config.root}"
                    ) from exc
            relative.append(str(path))
        self.repository.track(*relative)

    # ------------------------------------------------------------------- log
    def log(self, name: str, value: Any, filename: str | None = None) -> Any:
        """Record ``value`` under ``name`` in the current loop context.

        Returns ``value`` unchanged so the call can wrap expressions inline,
        exactly as in the paper's examples.

        This is the record path's hot function: it stages one tuple in the
        :class:`~repro.runtime.RecordBuffer` (value encoding deferred for
        scalars) and only touches SQLite indirectly, via an opportunistic
        background submit once enough records have accumulated.
        """
        filename = filename or self.current_filename()
        ctx = self._context_for(filename)
        ctx_id = ctx.current_ctx_id
        if self.mode == REPLAY:
            key = (self.tstamp, filename, ctx_id, name)
            if key in self._existing_log_keys:
                return value
            self._existing_log_keys.add(key)
        self._buffer.stage_log(self.projid, self.tstamp, filename, ctx_id, name, value)
        if self._buffer.pending >= self._stage_threshold:
            self.flush(wait=False)
        return value

    # ------------------------------------------------------------------- arg
    def arg(self, name: str, default: Any = None, filename: str | None = None) -> Any:
        """Command-line / historical hyperparameter access.

        Record mode resolution order: explicit ``cli_args`` mapping, then
        ``--name=value`` or ``name=value`` tokens in ``sys.argv``, then the
        default.  Replay mode returns the value recorded for the replayed
        run.  The resolved value is logged under ``name`` either way.
        """
        filename = filename or self.current_filename()
        if self.mode == REPLAY:
            value = self._historical_arg(name, filename)
            if value is None:
                value = default
            else:
                value = _coerce_like(value, default)
            return value
        value: Any = None
        found = False
        if name in self._cli_args:
            value, found = self._cli_args[name], True
        else:
            for token in sys.argv[1:]:
                for prefix in (f"--{name}=", f"{name}="):
                    if token.startswith(prefix):
                        value, found = token[len(prefix):], True
                        break
                if found:
                    break
        if not found:
            value = default
        else:
            value = _coerce_like(value, default)
        self.log(name, value, filename=filename)
        return value

    def _historical_arg(self, name: str, filename: str) -> Any:
        """The replayed run's first value of ``name``, this file's if it has one."""
        named = [r for r in self._recorded_logs if r.value_name == name]
        for record in named:
            if record.filename == filename:
                return record.decoded()
        return named[0].decoded() if named else None

    def _recorded_loop_rows(self, filename: str) -> list[LoopRecord]:
        """Loop rows the replayed run recorded for ``filename`` (one query per file)."""
        rows = self._recorded_loops.get(filename)
        if rows is None:
            rows = self._recorded_loops[filename] = self.loops.by_context(
                self.projid, self.tstamp, filename
            )
        return rows

    # ------------------------------------------------------------------ loop
    def loop(self, name: str, vals: Iterable[Any], filename: str | None = None) -> Iterator[Any]:
        """Instrumented loop generator (see the paper's ``flor.loop``).

        Record mode: every iteration opens a fresh loop context, emits a
        ``loops`` row and (when a checkpointing block is active at this
        nesting level) consults the checkpoint policy at the iteration
        boundary.  Replay mode: iterations re-use recorded context ids and
        the replay plan decides which iterations actually run.
        """
        filename = filename or self.current_filename()
        if self.mode == REPLAY:
            yield from self._replay_loop(name, vals, filename)
            return
        yield from self._record_loop(name, vals, filename)

    def _record_loop(self, name: str, vals: Iterable[Any], filename: str) -> Iterator[Any]:
        ctx = self._context_for(filename)
        frame = ctx.push_loop(name)
        is_checkpoint_loop = (
            self.checkpoints.has_registrations
            and self._ckpt_block_depth.get(filename) is not None
            and ctx.depth == self._ckpt_block_depth[filename] + 1
        )
        try:
            for i, value in enumerate(vals):
                frame.ctx_id = ctx.allocate_ctx_id()
                frame.iteration = i
                frame.iteration_value = value
                self._buffer.stage_loop(
                    self.projid,
                    self.tstamp,
                    filename,
                    frame.ctx_id,
                    frame.parent_ctx_id,
                    name,
                    i,
                    stringify_iteration_value(value),
                )
                self._note_loop_iteration(filename, name, i)
                started = time.perf_counter()
                yield value
                elapsed = time.perf_counter() - started
                if is_checkpoint_loop:
                    # Submit without waiting: the iteration boundary hands
                    # rows (and, below, the checkpoint) to the background
                    # workers instead of blocking the loop on SQLite.
                    self.flush(wait=False)
                    self.checkpoints.maybe_save(
                        CheckpointKey(self.projid, self.tstamp, filename, frame.ctx_id, name),
                        iteration=i,
                        iter_seconds=elapsed,
                    )
        finally:
            ctx.pop_loop(frame)

    def _replay_loop(self, name: str, vals: Iterable[Any], filename: str) -> Iterator[Any]:
        ctx = self._context_for(filename)
        frame = ctx.push_loop(name)
        parent = frame.parent_ctx_id
        recorded = [
            r
            for r in self._recorded_loop_rows(filename)
            if r.loop_name == name and (r.parent_ctx_id or TOP_LEVEL_CTX) == parent
        ]
        recorded.sort(key=lambda r: r.loop_iteration)
        recorded_by_iteration = {r.loop_iteration: r for r in recorded}
        vals_list = list(vals)
        total = max(len(vals_list), len(recorded))
        plan = self._replay_plan
        is_checkpoint_loop = (
            self.checkpoints.has_registrations
            and self._ckpt_block_depth.get(filename) is not None
            and ctx.depth == self._ckpt_block_depth[filename] + 1
        )
        selected_iterations = {
            i for i in range(total) if (plan.selects(name, i) if plan is not None else True)
        }
        must_execute = self._iterations_to_execute(
            selected_iterations, total, filename, name, recorded, is_checkpoint_loop
        )
        last_executed = -1
        try:
            for i in range(total):
                record = recorded_by_iteration.get(i)
                if i < len(vals_list):
                    value = vals_list[i]
                elif record is not None:
                    value = record.iteration_value
                else:  # pragma: no cover - defensive
                    break
                if i not in must_execute:
                    self.replay_stats["iterations_skipped"] += 1
                    continue
                if is_checkpoint_loop and last_executed < i - 1:
                    self._restore_nearest_checkpoint(filename, name, recorded, upto_iteration=i - 1)
                if record is not None:
                    frame.ctx_id = ctx.reserve_ctx_id(record.ctx_id)
                else:
                    frame.ctx_id = ctx.allocate_ctx_id()
                    self._buffer.stage_loop(
                        self.projid,
                        self.tstamp,
                        filename,
                        frame.ctx_id,
                        parent,
                        name,
                        i,
                        stringify_iteration_value(value),
                    )
                frame.iteration = i
                frame.iteration_value = value
                self.replay_stats["iterations_executed"] += 1
                yield value
                last_executed = i
        finally:
            ctx.pop_loop(frame)

    def _iterations_to_execute(
        self,
        selected: set[int],
        total: int,
        filename: str,
        loop_name: str,
        recorded: list[LoopRecord],
        is_checkpoint_loop: bool,
    ) -> set[int]:
        """Close the selected set under state dependencies.

        For a loop that carries state across iterations, executing iteration
        ``i`` correctly requires resuming from the nearest checkpoint at
        ``j <= i - 1`` and re-executing every iteration in ``(j, i)``.  For a
        stateless loop (no checkpointing block) the selected set is used
        as-is — the paper's differential execution at its most aggressive.
        """
        if selected >= set(range(total)):
            return set(range(total))
        if not is_checkpoint_loop:
            return set(selected)
        # Iterations that have a stored checkpoint, by iteration index.
        with_ckpt = set()
        ckpt_ctx = {
            ctx_id
            for ctx_id, name_ in self.checkpoints.available_checkpoints(
                self.projid, self.tstamp, filename
            )
            if name_ == loop_name
        }
        for record in recorded:
            if record.ctx_id in ckpt_ctx:
                with_ckpt.add(record.loop_iteration)
        must = set()
        for i in sorted(selected):
            j = max((k for k in with_ckpt if k <= i - 1), default=-1)
            must.update(range(j + 1, i + 1))
        return must

    def _restore_nearest_checkpoint(
        self,
        filename: str,
        loop_name: str,
        recorded: list[LoopRecord],
        upto_iteration: int,
    ) -> None:
        """Restore the latest checkpoint at or before ``upto_iteration``."""
        candidates = [r for r in recorded if r.loop_iteration <= upto_iteration]
        for record in sorted(candidates, key=lambda r: r.loop_iteration, reverse=True):
            key = CheckpointKey(self.projid, self.tstamp, filename, record.ctx_id, loop_name)
            if self.checkpoints.restore(key):
                self.replay_stats["checkpoints_restored"] += 1
                return

    # -------------------------------------------------------------- iteration
    @contextmanager
    def iteration(self, name: str, index: int | None, value: Any, filename: str | None = None) -> Iterator[Any]:
        """Manually scoped single loop iteration (``flor.iteration`` in Fig. 6).

        Used by long-running processes (web handlers) that need to attribute
        logs to a named entity — e.g. one document — outside a ``for`` loop.
        ``index`` of None auto-increments past the highest recorded iteration
        of this loop within the current run.
        """
        filename = filename or self.current_filename()
        ctx = self._context_for(filename)
        frame = ctx.push_loop(name)
        if index is None:
            # O(1) in record mode: the epoch-local counter already accounts
            # for every loop row this session staged under its fresh tstamp
            # — and nobody else can write rows under that tstamp — so neither
            # a flush barrier nor a database scan is needed.
            index = self._loop_iteration_next.get((filename, name), 0)
            if self.mode == REPLAY:
                # A replayed run also holds what it recorded (the snapshot)
                # and what ``_replay_loop`` staged beyond that (the buffer).
                existing = [
                    r.loop_iteration
                    for r in self._recorded_loop_rows(filename)
                    if r.loop_name == name
                ] + self._buffer.staged_loop_iterations(self.tstamp, filename, name)
                index = max([index, *(i + 1 for i in existing)])
        frame.ctx_id = ctx.allocate_ctx_id()
        frame.iteration = index
        frame.iteration_value = value
        self._buffer.stage_loop(
            self.projid,
            self.tstamp,
            filename,
            frame.ctx_id,
            frame.parent_ctx_id,
            name,
            index,
            stringify_iteration_value(value),
        )
        self._note_loop_iteration(filename, name, index)
        try:
            yield value
        finally:
            ctx.pop_loop(frame)

    # ---------------------------------------------------------- checkpointing
    @contextmanager
    def checkpointing(
        self,
        mapping: Mapping[str, Any] | None = None,
        /,
        filename: str | None = None,
        **objects: Any,
    ) -> Iterator[None]:
        """Register objects for adaptive checkpointing within the block."""
        registered = dict(mapping or {})
        registered.update(objects)
        filename = filename or self.current_filename()
        ctx = self._context_for(filename)
        self.checkpoints.register(registered)
        previous_depth = self._ckpt_block_depth.get(filename)
        self._ckpt_block_depth[filename] = ctx.depth
        try:
            yield
        finally:
            if previous_depth is None:
                self._ckpt_block_depth.pop(filename, None)
            else:
                self._ckpt_block_depth[filename] = previous_depth
            self.checkpoints.clear()

    # ---------------------------------------------------------------- commit
    def flush(self, wait: bool = True) -> None:
        """Drain staged records toward the database.

        With ``wait`` (the default) this is the read-your-writes barrier:
        it returns only once every staged and previously submitted row is
        durable.  With ``wait=False`` (used at loop iteration boundaries)
        the staged rows are handed to the background flusher and the
        recording thread moves on immediately.

        A replay session has no write path: this returns at once and the
        staged rows stay in the buffer for :meth:`take_pending_records`.

        Each transaction that writes rows bumps the query cache's generation
        counter for this project — from the flusher's thread, *after* the
        commit — so materialized pivot views notice the append on their next
        read (and merge just the delta).
        """
        if self.mode == REPLAY:
            return
        log_rows, loop_rows = self._buffer.drain_rows()
        if log_rows or loop_rows:
            try:
                self.flusher.submit(log_rows, loop_rows, on_written=self._note_rows_written)
            except FlushCallbackError:
                # The rows are durable (the inline write committed before
                # its callback failed); restoring them would duplicate.
                raise
            except Exception:
                # An inline write failed (a flusher already closed): the
                # rows reached neither the queue nor the database, so
                # restore them for a later retry.
                self._buffer.restore_rows(log_rows, loop_rows)
                raise
        if wait:
            self.flusher.drain()

    def _note_rows_written(self, count: int) -> None:
        """Invalidation hook run after each transaction that wrote our rows."""
        if self._query_engine is not None:
            self._query_engine.note_write()
        if self.on_rows_written is not None:
            self.on_rows_written(count)

    def commit(self, message: str = "", root_target: str | None = None) -> str | None:
        """Application-level transaction commit (``flor.commit`` in the paper).

        Flushes buffered records, snapshots tracked files into the version
        store, records the ``ts2vid`` epoch and starts a new timestamp.
        Returns the new version id — or None in replay mode, where a commit
        is a no-op: the run's version already exists and its new rows are
        landed by whoever replays it.
        """
        if self.mode == REPLAY:
            return None
        self.flush()
        # Checkpoints belonging to this epoch must be durable before the
        # version boundary — the drain barrier of the async writer.
        self.checkpoints.drain()
        ts_end = _timestamps.next()
        commit: Commit = self.repository.commit(message=message, tstamp=self.tstamp)
        self.ts2vid.add(
            Ts2VidRecord(
                projid=self.projid,
                ts_start=self.epoch_start,
                ts_end=ts_end,
                vid=commit.vid,
                root_target=root_target,
            )
        )
        self.tstamp = _timestamps.next()
        self.epoch_start = self.tstamp
        # Fresh timestamp, fresh run: auto-indices restart per epoch.
        self._loop_iteration_next.clear()
        return commit.vid

    # ------------------------------------------------------------- dataframe
    @property
    def query(self) -> "Any":
        """This session's :class:`~repro.query.QueryEngine` (created lazily).

        One engine per session; in the service layer that makes its pivot
        cache the per-shard cache, warm across every request that checks
        out the shard.
        """
        if self._query_engine is None:
            from ..query import QueryEngine

            self._query_engine = QueryEngine(self.db, self.projid)
            self._query_engine.cache.metrics.attach(self.metrics)
        return self._query_engine

    def dataframe(
        self,
        *names: str,
        latest: bool = False,
        tstamp_range: tuple[str | None, str | None] | None = None,
    ):
        """Pivoted view of the requested log names (``flor.dataframe``).

        Served by the query engine: repeated reads hit the materialized
        view, appends since the last read merge incrementally, and
        ``tstamp_range`` pushes an inclusive ``(since, until)`` bound into
        the SQLite scan.  ``latest`` keeps only the newest run's rows.

        Inside a replayed script this (like :meth:`sql`) reads the durable
        state: rows the replay has staged so far are not in it.
        """
        self.flush()
        return self.query.dataframe(*names, latest=latest, tstamp_range=tstamp_range)

    def dataframe_body(self, names: Sequence[str], *, latest: bool = False) -> bytes:
        """:meth:`dataframe` of ``names`` as the JSON bytes a server sends,
        which the query engine keeps with the materialized view."""
        self.flush()
        return self.query.dataframe_body(names, latest=latest)

    def sql(self, query: str, names: Sequence[str] = (), params: Sequence[Any] = ()):
        """Read-only SQL over the context store (the paper's "or SQL" path).

        Without ``names`` the query runs directly against the physical tables
        of Figure 1.  With ``names`` the pivoted view of those log names is
        materialized as a temporary ``pivot`` table first — backed by the
        query engine's cached view — so run-level questions become plain SQL::

            session.sql("SELECT tstamp, MAX(recall) AS best FROM pivot GROUP BY tstamp",
                        names=["recall"])
        """
        self.flush()
        return self.query.sql(query, names=names, params=params)


def _coerce_like(value: Any, default: Any) -> Any:
    """Cast ``value`` to the type of ``default`` when sensible."""
    if default is None or value is None:
        return value
    target = type(default)
    if isinstance(value, target):
        return value
    try:
        if target is bool and isinstance(value, str):
            return value.strip().lower() in {"1", "true", "yes", "on"}
        return target(value)
    except (TypeError, ValueError):
        return value


# --------------------------------------------------------------------------
# Active-session management
# --------------------------------------------------------------------------
#
# The stack lives in a ContextVar so that concurrently replaying threads (the
# hindsight engine's thread pool) each see their own activation, while
# ordinary single-threaded scripts behave like a plain global.

_session_stack: ContextVar[tuple["Session", ...]] = ContextVar("flor_session_stack", default=())
_default_session: Session | None = None
_default_session_factory: Callable[[], Session] | None = None
_atexit_registered = False


def set_default_session_factory(factory: Callable[[], Session] | None) -> None:
    """Override how the implicit default session is created (mainly for tests)."""
    global _default_session_factory, _default_session
    _default_session_factory = factory
    _default_session = None


def get_active_session(create_default: bool = True) -> Session:
    """The session that module-level flor calls should use.

    When no session has been activated and ``create_default`` is True, a
    default record-mode session rooted at the current working directory (or
    ``FLOR_PROJECT_DIR``) is created lazily and kept for the process
    lifetime; its pending records are committed at interpreter exit, which is
    the paper's ``atexit`` behaviour.
    """
    global _atexit_registered, _default_session
    stack = _session_stack.get()
    if stack:
        return stack[-1]
    if not create_default:
        raise RecordingError("no active FlorDB session")
    if _default_session is None:
        factory = _default_session_factory or (lambda: Session(ProjectConfig.discover(os.getcwd())))
        _default_session = factory()
        if not _atexit_registered:
            atexit.register(_commit_default_session)
            _atexit_registered = True
    return _default_session


def _commit_default_session() -> None:  # pragma: no cover - interpreter teardown
    if _default_session is None:
        return
    try:
        if _default_session.pending_records:
            _default_session.commit(message="flor atexit commit")
    except Exception:
        pass


@contextmanager
def active_session(session: Session) -> Iterator[Session]:
    """Make ``session`` the target of module-level flor calls within the block."""
    token = _session_stack.set(_session_stack.get() + (session,))
    try:
        yield session
    finally:
        _session_stack.reset(token)
