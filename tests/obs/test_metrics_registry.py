"""Unit tests for the metrics registry (counters, gauges, histograms, scopes)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

import repro
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, StatsView


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge()
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3.0

    def test_add_is_relative(self):
        gauge = Gauge()
        gauge.add(2)
        gauge.add(-5)
        assert gauge.value == -3.0


class TestHistogram:
    def test_percentiles_over_small_window(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        snap = histogram.summary()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["max"] == 100.0
        assert 45.0 <= snap["p50"] <= 55.0
        assert 90.0 <= snap["p95"] <= 100.0

    def test_empty_snapshot_is_all_zero(self):
        snap = Histogram().summary()
        assert snap == {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_ring_buffer_keeps_lifetime_count_past_the_window(self):
        histogram = Histogram(window=8)
        for value in range(100):
            histogram.observe(float(value))
        snap = histogram.summary()
        assert snap["count"] == 100  # lifetime, not window
        # The window only holds the most recent 8 observations.
        assert snap["p50"] >= 92.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            Histogram(window=0)


class TestMetricsRegistry:
    def test_instruments_are_created_on_first_use_and_reused(self):
        registry = MetricsRegistry()
        registry.inc("a.rows", 2)
        registry.inc("a.rows", 3)
        registry.set("a.depth", 9)
        registry.observe("a.ms", 1.5)
        assert registry.counter("a.rows") is registry.counter("a.rows")
        snap = registry.snapshot()
        assert snap["counters"]["a.rows"] == 5.0
        assert snap["gauges"]["a.depth"] == 9.0
        assert snap["histograms"]["a.ms"]["count"] == 1

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.inc("x")
        snap = registry.snapshot()
        assert set(snap) == {"uptime_seconds", "counters", "gauges", "histograms"}
        assert snap["uptime_seconds"] >= 0.0

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.inc("hot")
                registry.observe("hot.ms", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        assert snap["counters"]["hot"] == 8000.0
        assert snap["histograms"]["hot.ms"]["count"] == 8000


class TestScopes:
    def test_a_scoped_counter_feeds_every_ancestor_once(self):
        root = MetricsRegistry()
        shard = root.scope()
        flusher = shard.scope()
        flusher.inc("flush.rows", 3)
        shard.inc("flush.rows", 2)
        for registry, expected in ((flusher, 3), (shard, 5), (root, 5)):
            assert registry.snapshot()["counters"]["flush.rows"] == expected

    def test_attaching_late_carries_over_what_was_already_counted(self):
        root, private = MetricsRegistry(), MetricsRegistry()
        counter = private.counter("cache.lookups")  # resolved before attaching
        counter.inc(4)
        assert "cache.lookups" not in root.snapshot()["counters"]
        private.attach(root)
        counter.inc()
        assert root.snapshot()["counters"]["cache.lookups"] == 5
        with pytest.raises(ValueError):  # one parent for life
            private.attach(MetricsRegistry())
        assert root.snapshot()["counters"]["cache.lookups"] == 5

    def test_a_dropped_scope_leaves_its_counts_in_the_parent(self):
        root = MetricsRegistry()
        for rows in (2, 5):  # two incarnations of the same shard
            incarnation = root.scope()
            incarnation.inc("flush.rows", rows)
            del incarnation
        assert root.snapshot()["counters"]["flush.rows"] == 7

    def test_integer_counts_stay_integers(self):
        root = MetricsRegistry()
        root.scope().inc("pool.hits", 3)
        value = root.snapshot()["counters"]["pool.hits"]
        assert value == 3 and isinstance(value, int)

    def test_levels_and_windows_are_one_instrument_per_process(self):
        root = MetricsRegistry()
        first, second = root.scope().scope(), root.scope()
        assert first.histogram("flush.ms") is root.histogram("flush.ms")
        first.set("flush.pending_rows", 7)
        second.observe("flush.ms", 1.5)
        assert second.snapshot()["gauges"] == {} == second.snapshot()["histograms"]
        snap = root.snapshot()
        assert snap["gauges"]["flush.pending_rows"] == 7
        assert snap["histograms"]["flush.ms"]["count"] == 1


class TestStatsView:
    FIELDS = {"written_rows": "flush.rows", "high_water": None, "retries": "flush.retries"}

    def test_reads_values_and_hands_out_instruments(self):
        registry = MetricsRegistry()
        view = StatsView(registry, self.FIELDS)
        view["written_rows"].inc(4)
        view["high_water"].set(9)
        assert view.written_rows == 4
        assert view.as_dict() == {"written_rows": 4, "high_water": 9, "retries": 0}
        assert list(view.as_dict()) == list(self.FIELDS)  # table order
        assert view["written_rows"] is registry.counter("flush.rows")
        # The private level is on no registry: it has no process-wide meaning.
        assert registry.snapshot()["gauges"] == {}

    def test_is_read_only_and_strict_about_field_names(self):
        view = StatsView(MetricsRegistry(), self.FIELDS)
        with pytest.raises(AttributeError):
            view.written_rows = 3
        with pytest.raises(AttributeError):
            view.no_such_field


NAMES = ("flush.rows", "pool.hits")


class ScopeTreeMachine(RuleBasedStateMachine):
    """Random increments over a growing, re-wired tree of scopes.

    The model keeps, per registry, what it must read: its own increments
    plus everything counted below it — before or after the attach, by
    scopes still referenced or long dropped.
    """

    scopes = Bundle("scopes")

    def __init__(self):
        super().__init__()
        self.root = MetricsRegistry()
        self.expected: dict[int, dict[str, int]] = {id(self.root): dict.fromkeys(NAMES, 0)}
        self.parent: dict[int, MetricsRegistry | None] = {id(self.root): None}
        self.live: dict[int, MetricsRegistry] = {id(self.root): self.root}
        self.root_seen = dict.fromkeys(NAMES, 0)

    def _adopt(self, registry: MetricsRegistry, parent: MetricsRegistry | None):
        self.expected[id(registry)] = dict.fromkeys(NAMES, 0)
        self.parent[id(registry)] = parent
        self.live[id(registry)] = registry
        return registry

    def _credit(self, registry: MetricsRegistry | None, name: str, amount: int) -> None:
        while registry is not None:
            self.expected[id(registry)][name] += amount
            registry = self.parent[id(registry)]

    @rule(target=scopes)
    def open_private(self):
        return self._adopt(MetricsRegistry(), None)

    @rule(target=scopes)
    def open_under_root(self):
        return self._adopt(self.root.scope(), self.root)

    @rule(target=scopes, parent=scopes)
    def open_under(self, parent):
        return self._adopt(parent.scope(), parent)

    @rule(scope=scopes, name=st.sampled_from(NAMES), amount=st.integers(0, 5))
    def inc(self, scope, name, amount):
        scope.inc(name, amount)
        self._credit(scope, name, amount)

    @rule(name=st.sampled_from(NAMES), amount=st.integers(0, 5))
    def inc_root(self, name, amount):
        self.root.inc(name, amount)
        self._credit(self.root, name, amount)

    @rule(scope=scopes)
    def attach_late(self, scope):
        if self.parent[id(scope)] is not None:
            return
        scope.attach(self.root)
        self.parent[id(scope)] = self.root
        for name, counted in self.expected[id(scope)].items():
            self._credit(self.root, name, counted)

    @rule(scope=consumes(scopes))
    def close(self, scope):
        """Forget a scope (a closed shard); nothing it counted is taken back.
        Scopes opened under it keep feeding through it."""
        del self.live[id(scope)]

    @invariant()
    def every_scope_reads_the_sum_of_what_was_added_below_it(self):
        for key, registry in self.live.items():
            counters = registry.snapshot()["counters"]
            for name in NAMES:
                assert counters.get(name, 0) == self.expected[key][name]

    @invariant()
    def the_root_never_decreases(self):
        counters = self.root.snapshot()["counters"]
        for name in NAMES:
            assert counters.get(name, 0) >= self.root_seen[name]
            self.root_seen[name] = counters.get(name, 0)


ScopeTreeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestScopeTree = ScopeTreeMachine.TestCase


class TestConcurrentScopes:
    THREADS, EACH = 4, 5_000

    @pytest.fixture(autouse=True)
    def _short_switch_interval(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(previous)

    def _hammer(self, counters) -> None:
        def work(counter):
            for _ in range(self.EACH):
                counter.inc()

        threads = [threading.Thread(target=work, args=(c,)) for c in counters]
        for thread in threads:
            thread.start()
        self._threads = threads

    def _join(self) -> None:
        for thread in self._threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_four_threads_through_two_levels_lose_nothing(self):
        root = MetricsRegistry()
        shard = root.scope()
        leaves = [shard.scope() for _ in range(self.THREADS)]
        self._hammer([leaf.counter("flush.rows") for leaf in leaves])
        self._join()
        total = self.THREADS * self.EACH
        assert [leaf.counter("flush.rows").value for leaf in leaves] == [self.EACH] * self.THREADS
        assert shard.counter("flush.rows").value == total
        assert root.counter("flush.rows").value == total

    def test_attaching_under_fire_neither_loses_nor_doubles(self):
        root, private = MetricsRegistry(), MetricsRegistry()
        shared = private.counter("flush.rows")
        self._hammer([shared] * self.THREADS)
        private.attach(root)  # lands somewhere in the middle of the increments
        self._join()
        assert shared.value == self.THREADS * self.EACH
        assert root.counter("flush.rows").value == self.THREADS * self.EACH


def test_runtime_and_query_import_the_instruments_without_the_web_stack():
    """``repro.obs`` sits below the recording runtime and the query layer;
    were it to import ``repro.webapp`` again, importing them first would hit
    the webapp → session → runtime cycle."""
    code = (
        "import sys, repro.runtime, repro.query\n"
        "sys.exit('repro.webapp' in sys.modules or 'repro.service' in sys.modules)"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
