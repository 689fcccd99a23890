"""SSE stream builders for the service's live routes.

Three streams, one shape: every handler returns a
:class:`~repro.webapp.framework.StreamingResponse` whose generator
alternates *fetch committed state past my cursor from the store* with
*wait on a broker subscription* — the broker (:mod:`repro.obs.tail`)
carries wakeups only, never data, so a stream survives anything the
store survives:

* **project tail** — rows straight from the tenant shard's ``logs``
  table, ``seq`` as the SSE ``id``.  A reconnecting client presents
  ``Last-Event-ID`` and backfills from the relational store, which is
  what makes delivery exactly-once across disconnects, shard eviction
  and reopen (a fresh incarnation serves the same SQLite file), worker
  death (the fleet router re-proxies to the reopened placement), and
  even tails of a sealed project (checkout reopens the shard).
* **job tail** — the job's append-only ``job_events`` trail, ending with
  a ``done`` event at a terminal state.
* **telemetry feed** — periodic :func:`~repro.service.stats.
  telemetry_payload` snapshots for dashboards (``repro monitor``).

Generators never hold a shard lock across a ``yield``: each fetch is a
brief :meth:`~repro.service.pool.DatabasePool.checkout`, then the lock is
gone before the first byte is written to a (possibly slow) socket.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from ..errors import TailBackpressureError
from ..relational.queries import log_watermark
from ..relational.records import JOB_TERMINAL_STATES
from ..webapp.framework import HttpError, StreamingResponse, sse_comment, sse_event

#: Rows fetched per backfill query; a deep backlog streams as successive
#: batches without ever materializing the whole tail in memory.
TAIL_BATCH = 500

#: Default seconds between keepalive comments on an idle stream.  Routes
#: accept a ``keepalive`` query parameter (clamped below) so tests bound
#: every wait without monkeypatching.
DEFAULT_KEEPALIVE = 15.0
MIN_KEEPALIVE = 0.05
MAX_KEEPALIVE = 60.0

#: A seek of the ``seq`` (rowid) range past the cursor: ``+projid`` keeps
#: SQLite off ``idx_logs_pushdown``, whose whole project range it would read
#: and then sort.
_TAIL_ROWS_SQL = (
    "SELECT seq, tstamp, filename, ctx_id, value_name, value, value_type"
    " FROM logs WHERE +projid = ? AND seq > ? ORDER BY seq LIMIT ?"
)


def _subscribe(service, stream: str, cursor: int):
    try:
        return service.tail.subscribe(stream, cursor)
    except TailBackpressureError as exc:
        raise HttpError(
            503, str(exc), headers={"Retry-After": "1.0"}, detail={"stream": stream}
        ) from exc


def _tail_stream(generate: Iterator[str], subscription) -> StreamingResponse:
    """A StreamingResponse whose ``close`` also releases the subscription.

    The generator's own ``finally`` handles the normal paths, but a
    stream that is closed before its first chunk is ever pulled (client
    gone between subscribe and first write) never enters the generator
    body at all — closing an unstarted generator skips ``finally`` — so
    the response object itself must free the broker slot too.
    Unsubscribing twice is harmless.
    """
    response = StreamingResponse(generate)
    original_close = response.close

    def close() -> None:
        subscription.close()
        original_close()

    response.close = close  # type: ignore[method-assign]
    return response


def _row_payload(row) -> dict[str, Any]:
    return {
        "seq": int(row[0]),
        "tstamp": row[1],
        "filename": row[2],
        "ctx_id": row[3],
        "name": row[4],
        "value": row[5],
        "value_type": row[6],
    }


def project_tail_response(
    service,
    name: str,
    *,
    cursor: int = 0,
    keepalive: float = DEFAULT_KEEPALIVE,
    batch: int = TAIL_BATCH,
) -> StreamingResponse:
    """``GET /projects/<name>/tail`` — committed log rows as SSE, live.

    ``cursor`` is the last ``logs.seq`` the client has (0 for the full
    backlog).  A cursor *beyond* the shard's watermark — a stale
    ``Last-Event-ID`` from before a project reset, or plain garbage — is
    clamped to the watermark so the subscriber streams new rows instead
    of silently waiting for sequence numbers that will never come.
    """
    pool = service.pool
    with pool.checkout(name) as shard:
        watermark = log_watermark(shard.session.db, shard.session.projid)
    cursor = min(max(0, cursor), watermark)
    subscription = _subscribe(service, f"project:{name}", cursor)
    delivered = service.metrics.counter("tail.rows")

    def generate() -> Iterator[str]:
        try:
            yield sse_comment(f"tail of {name} from seq {subscription.cursor}")
            while True:
                if subscription.evicted is not None:
                    yield sse_event({"reason": subscription.evicted}, event="evicted")
                    return
                with pool.checkout(name) as shard:
                    rows = shard.session.db.query(
                        _TAIL_ROWS_SQL,
                        (shard.session.projid, subscription.cursor, batch),
                    )
                if rows:
                    for row in rows:
                        yield sse_event(_row_payload(row), event="log", id=int(row[0]))
                    subscription.advance(int(rows[-1][0]), len(rows))
                    delivered.inc(len(rows))
                    continue  # drain the backlog before sleeping again
                if not subscription.wait(keepalive):
                    yield sse_comment()
        finally:
            subscription.close()

    return _tail_stream(generate(), subscription)


def job_tail_response(
    service,
    job_id: int,
    *,
    cursor: int = 0,
    keepalive: float = DEFAULT_KEEPALIVE,
    batch: int = 200,
) -> StreamingResponse:
    """``GET /jobs/<id>/tail`` — the job's event trail as SSE, then ``done``.

    Events stream with their ``job_events.seq`` as the SSE id, so
    reconnecting works exactly like the project tail.  When the job
    reaches a terminal state the stream performs one final fetch (the
    terminal transition commits its event and its state in the same
    transaction, and the state read may race ahead of our last event
    read), emits any remainder, then a ``done`` event, then ends —
    ``repro jobs watch`` exits on it instead of polling.
    """
    store = service.jobs
    subscription = _subscribe(service, f"job:{job_id}", cursor)

    def _emit(events) -> Iterator[str]:
        for event in events:
            yield sse_event(event.as_dict(), event=event.kind, id=event.seq)
        if events:
            subscription.advance(events[-1].seq, len(events))

    def generate() -> Iterator[str]:
        try:
            yield sse_comment(f"tail of job {job_id} from seq {subscription.cursor}")
            while True:
                if subscription.evicted is not None:
                    yield sse_event({"reason": subscription.evicted}, event="evicted")
                    return
                events = store.events(job_id, after=subscription.cursor, limit=batch)
                if events:
                    yield from _emit(events)
                    continue
                job = store.get(job_id)
                if job is None or job.state in JOB_TERMINAL_STATES:
                    yield from _emit(store.events(job_id, after=subscription.cursor))
                    yield sse_event(
                        {
                            "job_id": job_id,
                            "state": job.state if job is not None else "deleted",
                        },
                        event="done",
                    )
                    return
                if not subscription.wait(keepalive):
                    yield sse_comment()
        finally:
            subscription.close()

    return _tail_stream(generate(), subscription)


def telemetry_stream_response(snapshot, *, interval: float = 2.0) -> StreamingResponse:
    """``GET /service/telemetry?stream=1`` — periodic ``snapshot()``s as SSE.

    The ``id`` is a per-connection sequence number, not a resume cursor:
    snapshots are self-contained (cumulative counters), so a reconnecting
    consumer just starts fresh and differences from its next snapshot.
    """

    def generate() -> Iterator[str]:
        seq = 0
        while True:
            seq += 1
            yield sse_event(snapshot(), event="telemetry", id=seq)
            time.sleep(interval)

    return StreamingResponse(generate())


def clamp_keepalive(value: float) -> float:
    return min(max(value, MIN_KEEPALIVE), MAX_KEEPALIVE)
