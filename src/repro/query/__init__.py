"""The incremental pivot query engine.

The paper's headline read path — ``flor.dataframe`` over the append-only
``logs``/``loops`` context — used to rebuild the pivoted view from every
row of history on every call.  This package makes that path scale the way
the ingestion path already does: do the work once, amortize it across
requests.

* :class:`PivotViewCache` — materialized pivot views keyed by
  ``(projid, sorted names)`` over records held once per ``(project,
  name)`` and per-run pivots that every view of the project shares.  The
  records carry ``logs.seq`` / ``loops.rowid`` watermarks; appends only
  annotate-and-merge the delta (per-run re-pivot through the same
  primitives as a cold rebuild), a new name set reads in full only the
  names no view holds yet, and writers invalidate cheaply through
  per-project generation counters.
* :class:`QueryEngine` — the planner façade sessions, the CLI and the
  service layer all route reads through: pushdown filters (name set,
  timestamp range) go to SQLite via :mod:`repro.relational.queries`;
  unfiltered pivot reads go through the cache.

See ``docs/architecture.md`` ("Query engine") for the data-flow picture
and benchmark T9 for the measured cold vs. warm/incremental latencies.
"""

from .cache import PivotViewCache
from .engine import QueryEngine

__all__ = [
    "PivotViewCache",
    "QueryEngine",
]
