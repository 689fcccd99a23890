"""Cheap tuple staging for the ``flor.log`` hot path.

The original record path allocated a frozen :class:`LogRecord` dataclass and
ran :func:`~repro.relational.records.encode_value` on every call — two costs
paid inside the user's training loop.  :class:`RecordBuffer` stages raw
tuples instead and defers encoding to drain time (i.e. onto the flush path,
which runs on the background writer's schedule).

Snapshot semantics: scalars are immutable, so deferring their encoding is
free.  Mutable values (dicts, lists, arbitrary objects) are encoded eagerly
at stage time — a caller that logs a dict and then mutates it must still see
the value *as logged*, exactly as before this optimization.
"""

from __future__ import annotations

from ..relational.records import LogRecord, LoopRecord, encode_value

#: Sentinel ``value_type`` marking a staged log whose value is an immutable
#: scalar still awaiting :func:`encode_value` (applied at drain time).
_DEFERRED = object()

#: Immutable types whose encoding can safely be deferred past the log call.
_SCALARS = (str, int, float, bool, type(None))


class RecordBuffer:
    """Stages log and loop rows as tuples; materializes them on drain.

    Not thread-safe — each :class:`~repro.core.session.Session` owns one
    buffer and stages from its recording thread only.  Thread-safety begins
    at the :class:`~repro.runtime.flusher.BackgroundFlusher` boundary.
    """

    __slots__ = ("_logs", "_loops")

    def __init__(self) -> None:
        self._logs: list[tuple] = []
        self._loops: list[tuple] = []

    # ---------------------------------------------------------------- staging
    def stage_log(
        self,
        projid: str,
        tstamp: str,
        filename: str,
        ctx_id: int,
        value_name: str,
        value: object,
    ) -> None:
        """Stage one ``logs`` row; encoding is deferred for scalar values."""
        if isinstance(value, _SCALARS):
            self._logs.append((projid, tstamp, filename, ctx_id, value_name, value, _DEFERRED))
        else:
            text, value_type = encode_value(value)
            self._logs.append((projid, tstamp, filename, ctx_id, value_name, text, value_type))

    def stage_loop(
        self,
        projid: str,
        tstamp: str,
        filename: str,
        ctx_id: int,
        parent_ctx_id: int | None,
        loop_name: str,
        loop_iteration: int,
        iteration_value: str | None,
    ) -> None:
        """Stage one ``loops`` row (``iteration_value`` already stringified)."""
        self._loops.append(
            (projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name, loop_iteration, iteration_value)
        )

    # ------------------------------------------------------------- inspection
    @property
    def pending(self) -> int:
        return len(self._logs) + len(self._loops)

    @property
    def pending_logs(self) -> int:
        return len(self._logs)

    @property
    def pending_loops(self) -> int:
        return len(self._loops)

    def staged_loop_iterations(self, tstamp: str, filename: str, loop_name: str) -> list[int]:
        """Iteration indices staged for one loop (``flor.iteration`` auto-index)."""
        return [
            row[6]
            for row in self._loops
            if row[1] == tstamp and row[2] == filename and row[5] == loop_name
        ]

    # ----------------------------------------------------------------- drain
    def drain_rows(self) -> tuple[list[tuple], list[tuple]]:
        """Take everything staged as insert-ready row tuples.

        This is where deferred scalar encoding happens — once per record, off
        the logging call, in whatever thread is flushing.
        """
        logs, self._logs = self._logs, []
        loops, self._loops = self._loops, []
        log_rows: list[tuple] = []
        for projid, tstamp, filename, ctx_id, value_name, value, value_type in logs:
            if value_type is _DEFERRED:
                value, value_type = encode_value(value)
            log_rows.append((projid, tstamp, filename, ctx_id, value_name, value, value_type))
        return log_rows, loops

    def drain_records(self) -> tuple[list[LogRecord], list[LoopRecord]]:
        """Take everything staged as record objects (what a replay hands back)."""
        log_rows, loop_rows = self.drain_rows()
        return [LogRecord(*row) for row in log_rows], [LoopRecord(*row) for row in loop_rows]

    def restore_rows(self, log_rows: list[tuple], loop_rows: list[tuple]) -> None:
        """Put drained rows back at the front of the buffer.

        Used when an inline write fails after :meth:`drain_rows`: the
        already-encoded rows re-enter the staging area (an encoded row is a
        valid staged row) so a later flush retries them, ahead of anything
        staged meanwhile.
        """
        self._logs = log_rows + self._logs
        self._loops = loop_rows + self._loops
