"""Record-path runtime: the machinery that takes write I/O off the hot loop.

The paper's pitch is that hindsight logging is cheap enough to leave on
everywhere.  This package is where that promise is enforced mechanically:

* :class:`~repro.runtime.buffer.RecordBuffer` — per-call staging for
  ``flor.log``/``flor.loop`` and the service's appends.  A log call appends
  one tuple, built once as the INSERT's row (:func:`~repro.runtime.buffer.
  log_row`): a plain scalar's encoding is deferred to the writer, anything
  else is encoded at the call, where a value that cannot be encoded raises.
  A drain is a list swap.
* :class:`~repro.runtime.flusher.BackgroundFlusher` — a double-buffered
  writer that drains staged rows to SQLite in single transactions,
  coalescing every batch queued since the last one and encoding the
  deferred values in the pass that flattens them, once per transaction —
  on its thread, or on a ``drain()`` caller's when none is in flight.
  Memory is bounded: submitters block (backpressure) once
  ``max_pending_rows`` rows (1,024 by default, which also caps a coalesced
  transaction) are in flight.  Only a submit after ``close()`` writes
  inline (late stragglers).  Checkpoints ride the same writer: the
  recording thread only snapshots registered state, and the flusher
  pickles each snapshot and writes it to ``obj_store`` in the transaction
  of the rows queued beside it (a snapshot weighs a quarter of the bound).
  ``drain()`` is the one barrier that ``restore()``/``commit()``/``close()``
  take before relying on stored checkpoints.

Layering: this package depends only on :mod:`repro.relational`,
:mod:`repro.errors` and the instruments of :mod:`repro.obs.metrics` (the
flusher counts what it does in a registry scope of its own);
:mod:`repro.core.session` builds on top of it, and
the service stages appended rows through the shard's session rather than
a buffer of its own.
"""

from .buffer import RecordBuffer
from .flusher import BackgroundFlusher, FlushCallbackError

__all__ = [
    "BackgroundFlusher",
    "FlushCallbackError",
    "RecordBuffer",
]
