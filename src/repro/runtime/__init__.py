"""Record-path runtime: the machinery that takes write I/O off the hot loop.

The paper's pitch is that hindsight logging is cheap enough to leave on
everywhere.  This package is where that promise is enforced mechanically:

* :class:`~repro.runtime.buffer.RecordBuffer` — per-call staging for
  ``flor.log``/``flor.loop``.  A log call appends one tuple; value encoding
  (``encode_value`` / JSON) is deferred to drain time so the training thread
  never pays serialization costs inside the loop.
* :class:`~repro.runtime.flusher.BackgroundFlusher` — a double-buffered
  writer thread that drains staged rows to SQLite in single transactions,
  coalescing every batch queued since its last wakeup.  Memory is bounded:
  submitters block (backpressure) once ``max_pending_rows`` rows (1,024 by
  default, which also caps a coalesced transaction) are in flight.  Only
  a submit after ``close()`` writes inline (late stragglers).
* :class:`~repro.runtime.checkpoint_writer.AsyncCheckpointWriter` — moves
  checkpoint pickling and object-store writes to a worker thread; the
  recording thread only snapshots registered state.  ``drain()`` is the
  barrier that ``restore()``/``commit()``/``close()`` take before relying
  on stored checkpoints.

Layering: this package depends only on :mod:`repro.relational`,
:mod:`repro.errors` and the instruments of :mod:`repro.obs.metrics` (both
workers count what they do in a registry scope of their own);
:mod:`repro.core.session` builds on top of it, and
the service stages appended rows through the shard's session rather than
a buffer of its own.
"""

from .buffer import RecordBuffer
from .checkpoint_writer import AsyncCheckpointWriter
from .flusher import BackgroundFlusher, FlushCallbackError

__all__ = [
    "AsyncCheckpointWriter",
    "BackgroundFlusher",
    "FlushCallbackError",
    "RecordBuffer",
]
