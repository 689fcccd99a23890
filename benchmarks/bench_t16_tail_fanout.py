"""T16 — Tail fan-out: 200 attached subscribers must not tax ingest.

The tail plane (:mod:`repro.obs.tail` + ``GET /projects/<name>/tail``)
is notify-and-refetch: the broker carries wakeups only, subscribers
re-query committed rows from SQLite past their own cursor.  Ingest
therefore pays one O(subscribers) event-set per commit and nothing
else — no per-subscriber buffering, no copy of the row into N queues,
and crucially *no delivery work on the ingest path*: a subscriber's
serialization happens when it pulls, bounded only by its own socket,
and a lagging subscriber catches up from the store afterwards.

That decoupling is what this benchmark measures.  A crowd of tail
subscribers (200 at full scale) subscribes to the stormed projects and
stays attached through the whole T8-shape ingest storm — every commit
pays the full 200-subscriber notify — while their delivery is
deliberately lazy, exactly as a lagging dashboard would be.  (Delivery
itself is inherently O(subscribers × rows) serialization work; a
same-process benchmark that forced it *inside* the measured window
would measure the GIL, not the tail plane.)  After the seal barrier
every subscriber drains its full trail, forcibly disconnected and
reconnected with ``Last-Event-ID`` mid-drain.

Claims asserted at every scale (the invariants):

* zero subscriber errors and zero evictions — a lagging-but-bounded
  subscriber is never mistaken for a runaway slow consumer;
* every subscriber was forcibly disconnected at least once, and its
  delivered ``seq`` trail is still strictly the contiguous range
  ``1..watermark`` — no gap, no duplicate — which is exactly-once
  delivery across the reconnects;
* the :class:`~repro.testing.AckLedger` leg: every sealed value shows
  up in a genuinely *live* consumer's trail (second test).

Asserted at full scale only (T5/T9/T10/T13's convention): ingest
throughput with all 200 subscribers attached stays within 10% of the
no-subscriber baseline.
"""

from __future__ import annotations

import threading
import time
from urllib.parse import quote

import pytest
from conftest import report

from repro.service import FlorService
from repro.testing import AckLedger
from repro.webapp.framework import TestClient
from repro.workloads import ServiceLoadReport, ServiceWorkload

PROJECTS = 4
#: Full-scale headline: ingest throughput with subscribers attached.
THROUGHPUT_FLOOR = 0.9

SCALES = {
    "smoke": {"subscribers": 16, "clients": 4, "requests_per_client": 10, "batch": 16},
    "full": {"subscribers": 200, "clients": 8, "requests_per_client": 30, "batch": 64},
}

#: Seconds per subscriber connection leg — every leg ends in a forced
#: disconnect, and the next leg resumes from the subscriber's
#: ``Last-Event-ID`` cursor, so the storm continuously exercises the
#: backfill path, not just the live push.
LEG_SECONDS = 0.5
DRAIN_SECONDS = 60.0

MAX_SEQ_SQL = quote("SELECT MAX(seq) AS max_seq FROM logs")


class _TailConsumer(threading.Thread):
    """One subscriber: attach through the storm, then drain exactly-once.

    ``seqs`` accumulates every delivered ``logs.seq`` across all
    connection legs.  Because each reconnect presents the last delivered
    seq as ``Last-Event-ID``, an exactly-once stream makes ``seqs``
    strictly increasing and gap-free — asserted by the caller against
    the shard's sealed watermark.  Setting ``target`` (before ``stop``)
    tells the thread what watermark to drain to before exiting; the
    drain always splits across a forced disconnect/reconnect, so every
    subscriber exercises the cursor-resume path.

    ``live=True`` (the AckLedger leg) consumes eagerly during the storm
    instead, force-reconnect cycling every ``LEG_SECONDS``.
    """

    def __init__(
        self,
        client: TestClient,
        project: str,
        stop: threading.Event,
        *,
        live: bool = False,
        record_values: bool = False,
    ):
        super().__init__(daemon=True)
        self.client = client
        self.project = project
        self.stop = stop
        self.live = live
        self.record_values = record_values
        self.seqs: list[int] = []
        self.values: list[str] = []
        self.errors = 0
        self.evictions = 0
        self.reconnects = -1  # the first connection is not a *re*connect
        self.target = 0

    def _open(self):
        cursor = self.seqs[-1] if self.seqs else 0
        stream = self.client.sse(
            f"/projects/{self.project}/tail?keepalive=0.1",
            headers={"Last-Event-ID": str(cursor)},
        )
        if stream.status != 200:
            self.errors += 1
            return None
        self.reconnects += 1
        return stream

    def _leg(self, timeout: float, *, stop_at: int = 0) -> None:
        stream = self._open()
        if stream is None:
            return
        try:
            for event in stream.events(timeout=timeout):
                if event.event == "log":
                    seq = int(event.id)
                    self.seqs.append(seq)
                    if self.record_values:
                        self.values.append(str(event.json()["value"]))
                    if stop_at and seq >= stop_at:
                        return
                elif event.event == "evicted":
                    self.evictions += 1
                    return
        finally:
            stream.close()

    def _drain(self) -> None:
        """Catch up to ``target`` in two legs split by a forced reconnect.

        Both legs run unconditionally, so every consumer — even one that
        consumed the whole trail live — ends having resumed from its
        cursor across at least one forced disconnect.
        """
        deadline = time.monotonic() + DRAIN_SECONDS
        for stop_at in (max(1, self.target // 2), self.target):
            while True:
                self._leg(LEG_SECONDS, stop_at=stop_at)
                if self.seqs and self.seqs[-1] >= stop_at:
                    break
                if time.monotonic() >= deadline:
                    return

    def run(self) -> None:
        if self.live:
            while not self.stop.is_set():
                self._leg(LEG_SECONDS)
            self._drain()
            return
        # Lazy attach: hold a subscription through the whole storm —
        # every commit notifies it — without pulling a byte.  This is a
        # dashboard that fell behind; the drain below is it catching up.
        stream = self._open()
        self.stop.wait()
        if stream is not None:
            stream.close()
        self._drain()


def _drive_storm(
    tmp_path, label: str, *, subscribers: int, clients: int, requests_per_client: int, batch: int
) -> tuple[ServiceLoadReport, list[_TailConsumer], dict]:
    service = FlorService(tmp_path / label, pool_capacity=PROJECTS, flush_size=batch)
    try:
        client = TestClient(service.app())
        workload = ServiceWorkload(
            clients=clients,
            requests_per_client=requests_per_client,
            records_per_request=batch,
            projects=PROJECTS,
        )
        # Create every project before the crowd subscribes — a tail on a
        # project that does not exist yet is a 404, not a wait.
        for project in workload.project_names():
            seeded = client.post(
                f"/projects/{project}/logs",
                json_body={
                    "filename": "train.py",
                    "records": [{"name": "metric", "value": 0.0, "ctx_id": 0}],
                },
            )
            assert seeded.status == 202
        stop = threading.Event()
        crowd = [
            _TailConsumer(client, workload.project_names()[i % PROJECTS], stop)
            for i in range(subscribers)
        ]
        for consumer in crowd:
            consumer.start()
        result = workload.run(client)
        # Seal every project (every read is a flush barrier), note the
        # watermarks, hand them to the crowd as drain targets, release.
        watermarks: dict[str, int] = {}
        for project in workload.project_names():
            rows = client.get(f"/projects/{project}/sql?q={MAX_SEQ_SQL}").json()
            watermarks[project] = int(rows["records"][0]["max_seq"])
        for consumer in crowd:
            consumer.target = watermarks[consumer.project]
        stop.set()
        for consumer in crowd:
            consumer.join(timeout=DRAIN_SECONDS + 30)
            assert not consumer.is_alive(), f"subscriber on {consumer.project} hung"
        tail_stats = service.tail.stats()
        return result, crowd, {"watermarks": watermarks, "tail": tail_stats}
    finally:
        service.close()


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_tail_fanout_throughput_and_exactly_once(benchmark, tmp_path, scale):
    params = dict(SCALES[scale])
    subscribers = params.pop("subscribers")
    baseline = _drive_storm(tmp_path, f"t16_base_{scale}", subscribers=0, **params)[0]
    result, crowd, extra = benchmark.pedantic(
        lambda: _drive_storm(tmp_path, f"t16_subs_{scale}", subscribers=subscribers, **params),
        rounds=1,
        iterations=1,
    )
    delivered = sum(len(c.seqs) for c in crowd)
    report(
        f"T16: ingest under tail fan-out, {scale} scale "
        f"({subscribers} subscribers, {params['clients']} clients, batch={params['batch']})",
        [
            {
                "mode": "baseline",
                "records_s": baseline.records_per_second,
                "p99_ms": baseline.percentile(99) * 1e3,
                "records": baseline.records,
                "delivered": 0,
                "reconnects": 0,
            },
            {
                "mode": f"{subscribers} tails",
                "records_s": result.records_per_second,
                "p99_ms": result.percentile(99) * 1e3,
                "records": result.records,
                "delivered": delivered,
                "reconnects": sum(c.reconnects for c in crowd),
            },
        ],
    )
    assert result.errors == 0 and baseline.errors == 0
    assert sum(c.errors for c in crowd) == 0, "subscriber connections failed"
    assert sum(c.evictions for c in crowd) == 0, (
        "an actively consuming subscriber was evicted as a slow consumer"
    )
    # Exactly-once across every forced reconnect: each subscriber was
    # disconnected at least once, and its seq trail is still the
    # contiguous range 1..watermark for its project.
    for consumer in crowd:
        assert consumer.reconnects >= 1, f"{consumer.project} tail never reconnected"
        watermark = extra["watermarks"][consumer.project]
        assert consumer.seqs == list(range(1, watermark + 1)), (
            f"gap or duplicate in {consumer.project} tail: "
            f"{len(consumer.seqs)} rows delivered, watermark {watermark}"
        )
    assert extra["tail"]["evicted_total"] == 0
    if scale == "full":
        floor = THROUGHPUT_FLOOR * baseline.records_per_second
        assert result.records_per_second >= floor, (
            f"ingest fell to {result.records_per_second:.0f} rec/s with "
            f"{subscribers} subscribers attached "
            f"(baseline {baseline.records_per_second:.0f}, floor {floor:.0f})"
        )


def test_sealed_rows_survive_a_forced_reconnect_exactly_once(benchmark, tmp_path):
    """The AckLedger leg: every sealed value arrives, and arrives once.

    A ledger-tracked ingest stream runs against one project while a
    single *live* subscriber consumes through forced reconnect cycles.
    Once every keyed batch is sealed the subscriber's trail must contain
    every sealed value, and the contiguous-seq check makes the delivery
    exactly-once.
    """

    def _run(label: str):
        ledger = AckLedger()
        service = FlorService(tmp_path / label, flush_size=8)
        try:
            client = TestClient(service.app())
            stop = threading.Event()
            consumer = _TailConsumer(client, "alpha", stop, live=True, record_values=True)
            for batch in range(30):
                if batch == 1:
                    consumer.start()  # alpha exists now; consume the rest live
                values = [f"b{batch}.r{r}" for r in range(8)]
                payload = {
                    "filename": "train.py",
                    "records": [
                        {"name": "metric", "value": v, "ctx_id": i}
                        for i, v in enumerate(values)
                    ],
                }
                assert ledger.post(client, "alpha", payload).status == 202

            assert ledger.seal(client, "alpha", "/projects/alpha/dataframe?names=metric") == 0
            rows = client.get(f"/projects/alpha/sql?q={MAX_SEQ_SQL}").json()
            watermark = int(rows["records"][0]["max_seq"])

            consumer.target = watermark
            stop.set()
            consumer.join(timeout=DRAIN_SECONDS + 30)
            assert not consumer.is_alive()
            return ledger, consumer, watermark
        finally:
            service.close()

    ledger, consumer, watermark = benchmark.pedantic(
        lambda: _run("t16_ledger"), rounds=1, iterations=1
    )
    report(
        "T16: AckLedger exactly-once across forced reconnects (live subscriber)",
        [
            {
                "delivered": len(consumer.seqs),
                "watermark": watermark,
                "reconnects": consumer.reconnects,
                "errors": consumer.errors,
            }
        ],
    )
    assert consumer.errors == 0 and consumer.evictions == 0
    assert consumer.reconnects >= 1, "the subscriber never reconnected"
    assert consumer.seqs == list(range(1, watermark + 1))
    sealed = ledger.sealed_values("alpha", "metric")
    assert len(sealed) == 30 * 8
    missing = sealed - set(consumer.values)
    assert not missing, f"sealed values never delivered: {sorted(missing)[:5]}"
