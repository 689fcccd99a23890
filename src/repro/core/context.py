"""Runtime context bookkeeping shared by the record and replay engines.

FlorDB stamps every log record with ``(projid, tstamp, filename, ctx_id)``.
The first three identify a run of a script within a version epoch; ``ctx_id``
identifies the innermost ``flor.loop`` iteration active when the record was
emitted (0 when logging outside any loop).  :class:`ContextState` maintains
the loop stack and allocates context ids; :class:`TimestampGenerator`
produces strictly monotonic run timestamps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

#: ctx_id used for records emitted outside any flor.loop.
TOP_LEVEL_CTX = 0


class TimestampGenerator:
    """Produces strictly increasing ISO-8601 timestamps.

    Wall-clock time alone can collide when runs start within the same
    microsecond (common in tests), so a logical counter breaks ties while the
    textual ordering stays consistent with chronological ordering.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last = 0.0

    def next(self) -> str:
        with self._lock:
            now = time.time()
            if now <= self._last:
                now = self._last + 1e-6
            self._last = now
            whole = time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(now))
            fraction = int(round((now % 1) * 1_000_000))
            if fraction >= 1_000_000:
                fraction = 999_999
            return f"{whole}.{fraction:06d}"


@dataclass
class LoopFrame:
    """One active ``flor.loop`` (or ``flor.iteration``) level.

    A frame is re-pointed at each iteration: ``ctx_id`` and ``iteration``
    change as the loop advances, while ``loop_name`` and ``parent_ctx_id``
    stay fixed for the lifetime of the loop.
    """

    loop_name: str
    parent_ctx_id: int
    ctx_id: int = TOP_LEVEL_CTX
    iteration: int = -1
    iteration_value: Any = None


@dataclass
class ContextState:
    """Loop stack and ctx_id allocation for one executing file.

    ``ctx_id`` values are unique within ``(projid, tstamp, filename)`` and are
    assigned in execution order starting at 1 (0 is the top level).
    """

    filename: str
    next_ctx_id: int = 1
    stack: list[LoopFrame] = field(default_factory=list)

    @property
    def current_ctx_id(self) -> int:
        return self.stack[-1].ctx_id if self.stack else TOP_LEVEL_CTX

    @property
    def depth(self) -> int:
        return len(self.stack)

    def allocate_ctx_id(self) -> int:
        ctx_id = self.next_ctx_id
        self.next_ctx_id += 1
        return ctx_id

    def reserve_ctx_id(self, ctx_id: int) -> int:
        """Mark an externally chosen ctx_id (from replay) as used."""
        self.next_ctx_id = max(self.next_ctx_id, ctx_id + 1)
        return ctx_id

    def push_loop(self, loop_name: str) -> LoopFrame:
        frame = LoopFrame(loop_name=loop_name, parent_ctx_id=self.current_ctx_id)
        self.stack.append(frame)
        return frame

    def pop_loop(self, frame: LoopFrame) -> None:
        if not self.stack or self.stack[-1] is not frame:
            # Defensive: generators can be abandoned mid-iteration; unwind to
            # the frame if it is still on the stack, otherwise ignore.
            while self.stack and self.stack[-1] is not frame:
                self.stack.pop()
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()

    def loop_path(self) -> tuple[tuple[str, int], ...]:
        """Current nesting as ``((loop_name, iteration), ...)`` outermost first."""
        return tuple((f.loop_name, f.iteration) for f in self.stack)


def stringify_iteration_value(value: Any, limit: int = 256) -> str | None:
    """Compact textual form of a loop's iteration value for the loops table.

    Only cheap-to-render scalar values are stringified in full; bulky values
    (mini-batches, arrays, arbitrary objects) are summarized by type and
    shape so that recording a training step costs microseconds, not an array
    pretty-print.  The value is informational — replay re-derives the real
    values from the script.
    """
    if value is None:
        return None
    if isinstance(value, (str, int, float, bool)):
        text = str(value)
    elif hasattr(value, "shape"):
        text = f"<{type(value).__name__} shape={getattr(value, 'shape', '?')}>"
    elif isinstance(value, (tuple, list)):
        text = f"<{type(value).__name__} len={len(value)}>"
    elif isinstance(value, dict):
        text = f"<dict keys={list(value)[:8]}>"
    else:
        text = f"<{type(value).__name__}>"
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text
