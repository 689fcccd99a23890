"""Cheap tuple staging for the ``flor.log`` hot path and the service's appends.

A staged ``logs`` row is the INSERT's own tuple, built once by :func:`log_row`:
``(projid, tstamp, filename, ctx_id, value_name, value, DEFERRED)`` while the
value is a ``str``, ``float``, ``bool`` or ``None`` of exactly that type or an
``int`` inside SQLite's 64 bits — whose encoding can neither fail nor change —
and ``(..., text, value_type)`` for anything else, encoded at the stage call.
The flusher's writer encodes the deferred values in the pass that collects a
transaction's rows, so neither the training loop nor a request thread pays
for ``repr``; a value that cannot be encoded (or text with a lone surrogate)
raises where it is logged and stages nothing, instead of dropping the rows a
writer batch holds beside it; and a mutable value is snapshotted as logged.
"""

from __future__ import annotations

from ..relational.records import encode_value

#: ``value_type`` of a staged row whose ``value`` the writer still encodes.
DEFERRED = object()

#: Types whose exact instances are deferred (``int`` only inside 64 bits).
_DEFERRABLE = frozenset((str, float, bool, type(None)))


def log_row(
    projid: str, tstamp: str, filename: str, ctx_id: int, value_name: str, value: object
) -> tuple:
    """The staged ``logs`` row of one value (see the module docstring)."""
    kind = type(value)
    if kind in _DEFERRABLE or (kind is int and -(2**63) <= value < 2**63):
        text, value_type = value, DEFERRED
    else:
        text, value_type = encode_value(value)
    if not value_name.isascii() or (type(text) is str and not text.isascii()):
        f"{value_name}{text}".encode("utf-8")  # a lone surrogate raises here
    return (projid, tstamp, filename, ctx_id, value_name, text, value_type)


class RecordBuffer:
    """Stages ``logs`` rows (built by :func:`log_row`) and ``loops`` rows.

    Not thread-safe — each :class:`~repro.core.session.Session` owns one
    buffer and stages from its recording thread only.  Thread-safety begins
    at the :class:`~repro.runtime.flusher.BackgroundFlusher` boundary.
    """

    __slots__ = ("_logs", "_loops")

    def __init__(self) -> None:
        self._logs: list[tuple] = []
        self._loops: list[tuple] = []

    # ---------------------------------------------------------------- staging
    def stage(self, log_rows: list[tuple], loop_rows: list[tuple]) -> None:
        """Stage rows built elsewhere: :func:`log_row` rows and ``loops`` rows."""
        self._logs.extend(log_rows)
        self._loops.extend(loop_rows)

    def stage_log(
        self, projid: str, tstamp: str, filename: str, ctx_id: int, value_name: str, value: object
    ) -> None:
        """Stage one ``logs`` row (see :func:`log_row`)."""
        self._logs.append(log_row(projid, tstamp, filename, ctx_id, value_name, value))

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
        """Take everything staged, as staged: the flusher's writer encodes
        the deferred values, once per transaction."""
        logs, self._logs = self._logs, []
        loops, self._loops = self._loops, []
        return logs, loops

    def drain_encoded(self) -> tuple[list[tuple], list[tuple]]:
        """Take everything staged with each deferred value encoded: rows that
        leave the session (a replay's hand-back, pickled from a process
        worker), where :data:`DEFERRED` would not keep its identity."""
        logs, loops = self.drain_rows()
        return [
            (*row[:5], *encode_value(row[5])) if row[6] is DEFERRED else row for row in logs
        ], loops

    def restore_rows(self, log_rows: list[tuple], loop_rows: list[tuple]) -> None:
        """Put drained rows back at the front of the buffer.

        Used when an inline write fails after :meth:`drain_rows`: the rows
        re-enter the staging area as they left it, so a later flush retries
        them, ahead of anything staged meanwhile.
        """
        self._logs = log_rows + self._logs
        self._loops = loop_rows + self._loops
