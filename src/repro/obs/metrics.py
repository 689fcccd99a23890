"""Low-overhead process metrics: counters, gauges, ring-buffer histograms.

The observability plane needs numbers from the hottest paths in the system
— the background flusher's per-transaction latency, the pool's hit/miss
churn, admission verdicts — so the recording side must cost almost nothing
and never block.  Three instrument kinds cover everything the telemetry
feed serves:

* :class:`Counter` — monotone float/int accumulator (``rows_written``,
  ``admitted``).  Rates are the *reader's* job: the telemetry feed emits
  snapshots, and consumers (the ``repro monitor`` CLI) difference
  successive snapshots against wall-clock.
* :class:`Gauge` — last-write-wins level (``queue_depth``).
* :class:`Histogram` — a fixed-size ring buffer of recent observations.
  ``observe`` is O(1) (overwrite a slot, bump two scalars); percentiles
  (p50/p95/p99) are computed lazily at snapshot time from a copy of the
  window, so the hot path never sorts.  The window covers the *recent*
  distribution — exactly what a live dashboard wants — while ``count``
  and ``sum`` stay lifetime-accurate.

Instruments are created on first use and held forever (the registry is a
bounded vocabulary of code-site names, not per-request data).

A count lives in exactly one place.  Every instrumented component owns a
private :class:`MetricsRegistry` and records each event with one ``inc`` —
there is no "metrics off" branch and no second set of fields — and whoever
owns the component :meth:`~MetricsRegistry.attach`es that registry to a
wider scope: a session its flusher's, the service pool each shard
session's to the process registry.  A counter then adds to the parent's
counter of the same name too, so the per-shard block of ``GET
/projects/<name>/stats`` and the process sum in ``GET /service/telemetry``
are the same instruments read at two scopes.  A parent holds no reference
to its children: a scope that is dropped (a closed shard) leaves what it
counted in the parent.  Gauges and histograms are levels and windows,
which do not add, so an attached scope records them straight into the
outermost registry — one instrument per name per process.  A component's
``.stats`` is a :class:`StatsView` over its counters.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

#: Default histogram window: big enough that p99 over a busy second is
#: meaningful, small enough that snapshotting (copy + sort) stays cheap.
DEFAULT_WINDOW = 1024


class Counter:
    """A monotone accumulator: ``inc`` never goes backwards, integer
    increments keep the value an integer, and once attached to a parent
    every increment is added to it too."""

    __slots__ = ("_lock", "_value", "_parent")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0
        self._parent: Counter | None = None

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        # Walk up the scopes, one lock at a time.  The parent link is read
        # under the same lock as the add, and attach() sets it and reads the
        # value to carry over under that lock too, so an increment racing an
        # attach is neither lost nor counted twice.
        counter: Counter | None = self
        while counter is not None:
            with counter._lock:
                counter._value += amount
                counter = counter._parent

    def attach(self, parent: "Counter") -> None:
        """Feed ``parent`` from now on, starting with what is already counted."""
        with self._lock:
            self._parent = parent
            if self._value:
                parent.inc(self._value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Ring buffer of the most recent ``window`` observations.

    ``observe`` overwrites the oldest slot once the window is full;
    ``summary`` copies the window and computes nearest-rank percentiles.
    Lifetime ``count`` and ``sum`` ride alongside so throughput/mean
    survive the window rolling.
    """

    __slots__ = ("_lock", "_buffer", "_window", "count", "sum")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"histogram window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._buffer: list[float] = []
        self._window = window
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            if self.count < self._window:
                self._buffer.append(float(value))
            else:
                self._buffer[self.count % self._window] = float(value)
            self.count += 1
            self.sum += value

    def summary(self) -> dict[str, float]:
        with self._lock:
            window = sorted(self._buffer)
            count, total = self.count, self.sum
        if not window:
            return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

        def rank(p: float) -> float:
            return window[min(len(window) - 1, int(p * len(window)))]

        return {
            "count": count,
            "sum": round(total, 6),
            "p50": rank(0.50),
            "p95": rank(0.95),
            "p99": rank(0.99),
            "max": window[-1],
        }


class MetricsRegistry:
    """Name → instrument table of one scope.

    The service process has one outermost registry (the
    :class:`~repro.service.app.FlorService` owns it); its ``snapshot()`` is
    what ``GET /service/telemetry`` serves.
    """

    def __init__(self, *, histogram_window: int = DEFAULT_WINDOW):
        self._lock = threading.Lock()
        self._parent: MetricsRegistry | None = None
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._histogram_window = histogram_window
        self.started_at = time.time()

    # ---------------------------------------------------------------- scopes
    def attach(self, parent: "MetricsRegistry") -> None:
        """Make this registry a scope of ``parent``.

        Counts already taken are added to the parent's counters, and every
        later increment reaches both.  Levels and windows recorded before
        attaching stay behind: gauges and histograms resolve to the
        parent's from here on.  A scope has one parent for life.
        """
        with self._lock:
            if self._parent is not None:
                raise ValueError("this registry is already attached to a parent")
            self._parent = parent
            for name, counter in self._counters.items():
                counter.attach(parent.counter(name))

    def scope(self) -> "MetricsRegistry":
        """A new registry attached to this one."""
        child = MetricsRegistry(histogram_window=self._histogram_window)
        child.attach(self)
        return child

    # -------------------------------------------------------- get-or-create
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
                if self._parent is not None:
                    instrument.attach(self._parent.counter(name))
            return instrument

    def gauge(self, name: str) -> Gauge:
        if self._parent is not None:
            return self._parent.gauge(name)
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        if self._parent is not None:
            return self._parent.histogram(name)
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(self._histogram_window)
            return instrument

    # ----------------------------------------------------------- convenience
    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> dict[str, Any]:
        """A point-in-time view of every instrument, JSON-ready."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {name: h.summary() for name, h in sorted(histograms.items())},
        }


class StatsView:
    """The read-only ``.stats`` of one component, over its live instruments.

    Built from the component's ``field → telemetry counter name`` table;
    a field mapped to ``None`` is a level private to the component (a
    high-water mark has no meaningful process-wide sum) and gets a
    :class:`Gauge` that no registry lists.  ``view.field`` is the current
    value, ``view.as_dict()`` all of them in table order, and
    ``view["field"]`` the instrument itself, for the owner to record into.
    """

    __slots__ = ("_instruments",)

    def __init__(self, metrics: MetricsRegistry, fields: Mapping[str, "str | None"]):
        self._instruments: dict[str, Counter | Gauge] = {
            field: metrics.counter(name) if name else Gauge()
            for field, name in fields.items()
        }

    def __getitem__(self, field: str) -> "Counter | Gauge":
        return self._instruments[field]

    def __getattr__(self, field: str) -> float:
        try:
            return self._instruments[field].value
        except KeyError:
            raise AttributeError(field) from None

    def as_dict(self) -> dict[str, float]:
        return {field: instrument.value for field, instrument in self._instruments.items()}
