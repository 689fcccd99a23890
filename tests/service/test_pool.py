"""Tests for the sharded database pool (LRU eviction, reopen, locking)."""

from __future__ import annotations

import threading

import pytest

from repro.service.pool import DatabasePool


@pytest.fixture()
def pool(tmp_path):
    pool = DatabasePool(tmp_path / "projects", capacity=2)
    yield pool
    pool.close()


def _log(shard, i: int) -> tuple:
    return (shard.session.tstamp, "load.py", i, "m", i)


class TestLookup:
    def test_get_caches_the_handle(self, pool):
        first = pool.get("alpha")
        assert pool.get("alpha") is first
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_each_project_gets_its_own_database(self, pool, tmp_path):
        alpha = pool.get("alpha")
        beta = pool.get("beta")
        assert alpha.session.db is not beta.session.db
        assert (tmp_path / "projects" / "alpha" / ".flor" / "flor.db").exists()
        assert (tmp_path / "projects" / "beta" / ".flor" / "flor.db").exists()

    def test_invalid_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatabasePool(tmp_path, capacity=0)


class TestEviction:
    def test_lru_evicts_the_coldest_shard(self, pool):
        alpha = pool.get("alpha")
        pool.get("beta")
        pool.get("alpha")  # alpha is now hot, beta cold
        pool.get("gamma")  # capacity 2 -> beta evicted
        assert pool.open_shards() == ["alpha", "gamma"]
        assert pool.stats.evictions == 1
        assert not alpha.closed

    def test_eviction_flushes_pending_records(self, pool):
        alpha = pool.get("alpha")
        alpha.append([_log(alpha, 0), _log(alpha, 1)])
        assert alpha.pending == 2
        pool.get("beta")
        pool.get("gamma")  # evicts alpha with queued records
        assert alpha.closed
        # Reopen: the acknowledged records survived the eviction.
        reopened = pool.get("alpha")
        assert reopened is not alpha
        assert reopened.session.db.count("logs") == 2
        assert pool.stats.reopens == 1

    def test_explicit_evict(self, pool):
        shard = pool.get("alpha")
        assert pool.evict("alpha") is True
        assert shard.closed
        assert "alpha" not in pool
        assert pool.evict("alpha") is False

    def test_close_closes_every_shard(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        shards = [pool.get(name) for name in ("a", "b", "c")]
        pool.close()
        assert all(shard.closed for shard in shards)
        assert len(pool) == 0

    def test_one_failed_close_neither_stops_close_nor_orphans_its_shard(
        self, tmp_path, monkeypatch
    ):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        shards = [pool.get(name) for name in ("a", "b", "c")]
        for shard in shards:
            shard.append([_log(shard, 0)])
        first = shards[0]
        original_flush = first.session.flush

        def failing_once(wait=True):
            monkeypatch.setattr(first.session, "flush", original_flush)
            raise RuntimeError("disk hiccup")

        monkeypatch.setattr(first.session, "flush", failing_once)
        with pytest.raises(RuntimeError, match="disk hiccup"):
            pool.close()
        # The later shards were still flushed and closed...
        assert [(s.closed, s.pending) for s in shards[1:]] == [(True, 0), (True, 0)]
        # ...and the failed one is back in the pool, its row still staged.
        assert pool.open_shards() == ["a"] and first.pending == 1
        pool.close()  # the retry closes it
        assert first.closed and first.pending == 0 and len(pool) == 0

    def test_failed_eviction_flush_reinstates_the_shard(self, pool, monkeypatch):
        """A flush failure during eviction must not drop acknowledged records."""
        alpha = pool.get("alpha")
        alpha.append([_log(alpha, 0)])
        attempts = []
        original_flush = alpha.session.flush

        def failing_flush(wait=True):
            if not attempts:
                attempts.append(1)
                raise RuntimeError("disk hiccup")
            return original_flush(wait)

        monkeypatch.setattr(alpha.session, "flush", failing_flush)
        pool.get("beta")
        pool.get("gamma")  # eviction of alpha: close fails, shard reinstated
        assert not alpha.closed
        assert "alpha" in pool
        assert alpha.pending == 1  # records still reachable
        pool.close()  # second attempt succeeds
        assert alpha.closed
        assert alpha.pending == 0

    def test_factory_failure_does_not_wedge_the_pool(self, tmp_path):
        calls = []

        def flaky_factory(name):
            calls.append(name)
            if len(calls) == 1:
                raise RuntimeError("cold start failed")
            return DatabasePool(tmp_path / "p")._default_factory(name)

        pool = DatabasePool(tmp_path / "p", capacity=2, shard_factory=flaky_factory)
        try:
            with pytest.raises(RuntimeError):
                pool.get("alpha")
            # The failed open left no reservation behind; a retry succeeds.
            shard = pool.get("alpha")
            assert not shard.closed
        finally:
            pool.close()

    def test_pool_equips_shards_from_a_custom_factory(self, tmp_path):
        """Policy values, the post-commit hook and metrics are applied by the
        pool, so a factory only has to build the session."""
        from repro.config import ProjectConfig
        from repro.core.session import Session
        from repro.obs import MetricsRegistry
        from repro.service.pool import ProjectShard

        def bare_factory(name):
            session = Session(ProjectConfig(tmp_path / "p" / name, name))
            return ProjectShard(name, session)

        metrics = MetricsRegistry()
        published = []
        pool = DatabasePool(
            tmp_path / "p",
            flush_size=2,
            flush_interval=None,
            shard_factory=bare_factory,
            metrics=metrics,
            on_ingest=lambda name, rows: published.append((name, rows)),
        )
        try:
            shard = pool.get("alpha")
            assert (shard.flush_size, shard.flush_interval) == (2, None)
            assert shard.append([_log(shard, 0), _log(shard, 1)]) is True
            shard.flush()  # the hook runs on the flusher's thread, post-commit
            assert published == [("alpha", 2)]
            assert metrics.snapshot()["counters"]["flush.rows"] == 2
        finally:
            pool.close()

    def test_concurrent_first_opens_share_one_handle(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        try:
            results = []

            def opener():
                results.append(pool.get("shared"))

            threads = [threading.Thread(target=opener) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(shard) for shard in results}) == 1
            assert pool.stats.misses == 1  # only one thread actually opened
        finally:
            pool.close()


class TestEvictionsAreCountedOnce:
    """``pool.stats.evictions`` and the registry's ``pool.evictions`` are one
    counter, bumped when a close succeeds — whichever path closed the shard."""

    def test_explicit_evict_shows_in_stats_and_registry_alike(self, tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        pool = DatabasePool(tmp_path / "p", capacity=2, metrics=metrics)
        try:
            pool.get("alpha")
            assert pool.evict("alpha")
            assert pool.stats.evictions == 1
            assert metrics.snapshot()["counters"]["pool.evictions"] == 1
        finally:
            pool.close()

    def test_failed_lru_close_reinstates_and_counts_no_eviction(self, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.testing import FaultPlan, chaos_shard_factory

        root = tmp_path / "p"
        plan = FaultPlan(seed=7)
        metrics = MetricsRegistry()
        pool = DatabasePool(
            root,
            capacity=1,
            flush_interval=None,
            shard_factory=chaos_shard_factory(root, plan),
            metrics=metrics,
        )
        try:
            alpha = pool.get("alpha")
            alpha.append([_log(alpha, 0)])
            # Every attempt of the closing flush (1 + 2 retries) finds the
            # database locked: the batch is dropped and the close raises.
            plan.force("locked", "shard.alpha.db.transaction", times=3)
            pool.get("beta")  # capacity 1: the LRU path tries to close alpha
            assert "alpha" in pool and not alpha.closed
            assert pool.stats.evictions == 0
            assert metrics.snapshot()["counters"]["pool.evictions"] == 0
            assert pool.dropped_rows_total("alpha") == 1
            # The next eviction of the reinstated shard succeeds and counts.
            assert pool.evict("alpha")
            assert pool.stats.evictions == 1
            assert metrics.snapshot()["counters"]["pool.evictions"] == 1
        finally:
            pool.close()


class TestCheckout:
    def test_checkout_holds_the_shard_lock(self, pool):
        with pool.checkout("alpha") as shard:
            # The shard lock is re-entrant, so the owning thread re-acquires...
            assert shard.lock.acquire(blocking=False)
            shard.lock.release()
            # ...while another thread cannot.
            acquired = []
            thread = threading.Thread(
                target=lambda: acquired.append(shard.lock.acquire(blocking=False))
            )
            thread.start()
            thread.join()
            assert acquired == [False]

    def test_checkout_retries_after_eviction_race(self, pool):
        stale = pool.get("alpha")
        pool.evict("alpha")  # simulate losing the race: handle closed underneath us
        assert stale.closed
        with pool.checkout("alpha") as shard:
            assert not shard.closed
            assert shard is not stale

    def test_concurrent_appends_land_in_full(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        try:
            def worker(worker_id: int) -> None:
                for i in range(20):
                    with pool.checkout("shared") as shard:
                        shard.append([_log(shard, worker_id * 100 + i)])

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with pool.checkout("shared") as shard:
                shard.flush()
                assert shard.session.db.count("logs") == 80
        finally:
            pool.close()

    def test_flush_all_reports_written_records(self, pool):
        alpha = pool.get("alpha")
        beta = pool.get("beta")
        alpha.append([_log(alpha, 0)])
        beta.append([_log(beta, 0), _log(beta, 1)])
        assert pool.flush_all() == 3


class TestDurabilityCounters:
    """The drop-total and closing-registry machinery behind the seal protocol."""

    def test_dropped_rows_total_is_monotone_across_reopens(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=2)
        try:
            first = pool.get("alpha")
            assert pool.dropped_rows_total("alpha") == 0
            first.session.flusher.stats["dropped_rows"].inc(3)
            assert pool.dropped_rows_total("alpha") == 3
            assert pool.evict("alpha")  # banks the incarnation's count
            assert pool.dropped_rows_total("alpha") == 3
            second = pool.get("alpha")
            assert second.incarnation > first.incarnation
            assert second.session.flusher.stats.dropped_rows == 0
            assert pool.dropped_rows_total("alpha") == 3  # bank + fresh live
            second.session.flusher.stats["dropped_rows"].inc(2)
            assert pool.dropped_rows_total("alpha") == 5
        finally:
            pool.close()

    def test_lru_eviction_banks_drops_too(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=1)
        try:
            pool.get("alpha").session.flusher.stats["dropped_rows"].inc(4)
            pool.get("beta")  # capacity 1: alpha evicted via the LRU path
            assert "alpha" not in pool
            assert pool.dropped_rows_total("alpha") == 4
        finally:
            pool.close()

    def test_lookup_waits_out_an_inflight_close_so_reinstating_wins(
        self, pool, monkeypatch
    ):
        """A lookup racing a failing close must get the reinstated shard
        back — not rebuild the name and orphan the old handle's records."""
        alpha = pool.get("alpha")
        entered = threading.Event()
        gate = threading.Event()

        def slow_failing_close():
            entered.set()
            gate.wait(5.0)
            raise RuntimeError("flush died mid-close")

        monkeypatch.setattr(alpha, "close", slow_failing_close)
        evict_failed = []

        def evict():
            try:
                pool.evict("alpha")
            except RuntimeError:
                evict_failed.append(True)

        closer = threading.Thread(target=evict)
        closer.start()
        assert entered.wait(5.0)
        got = []
        looker = threading.Thread(target=lambda: got.append(pool.get("alpha")))
        looker.start()
        looker.join(timeout=0.2)
        assert not got  # parked on the closing reservation, not rebuilding
        gate.set()
        closer.join(timeout=5.0)
        looker.join(timeout=5.0)
        assert evict_failed  # the explicit evict propagated its failure
        assert got == [alpha]  # same handle, reinstated
        assert not alpha.closed


class TestRetainedViews:
    """An evicted shard's pivot views wait for the tenant's next incarnation,
    which re-validates them by watermark.  Every read is compared with a
    ``build_dataframe`` on a fresh handle."""

    NAMES = ["m"]

    @staticmethod
    def _db_path(pool, name):
        return pool.root / name / ".flor" / "flor.db"

    def _read(self, pool, name):
        """Read through the pool; assert it equals a rebuild; return the frame."""
        from repro.core.dataframe_view import build_dataframe
        from repro.relational.database import Database

        with pool.checkout(name) as shard:
            frame = shard.session.dataframe(*self.NAMES)
        with Database(self._db_path(pool, name)) as fresh:
            assert frame.equals(build_dataframe(fresh, name, self.NAMES))
        return frame

    @staticmethod
    def _cache(pool, name):
        with pool.checkout(name) as shard:
            return shard.session.query.cache

    @staticmethod
    def _write_through_a_second_handle(path, tstamp, values):
        from repro.relational.database import Database
        from repro.relational.records import LogRecord
        from repro.relational.repositories import LogRepository

        with Database(path) as other:
            LogRepository(other).add_many(
                [LogRecord.create("alpha", tstamp, "other.py", 0, "m", v) for v in values]
            )

    def _seeded(self, tmp_path):
        """A pool of two whose tenant ``alpha`` holds one run of three rows."""
        pool = DatabasePool(tmp_path / "p", capacity=2, flush_interval=None)
        with pool.checkout("alpha") as shard:
            shard.append([_log(shard, i) for i in range(3)])
            shard.flush()
        return pool

    def test_a_reopen_rechecks_a_view_a_read_only_incarnation_built(self, tmp_path):
        """The second incarnation's connection counts writes from 0 again,
        like the first one's did: only the generation bump on hand-over keeps
        its read from fast-hitting past rows another process appended."""
        pool = self._seeded(tmp_path)
        try:
            assert pool.evict("alpha")
            assert len(self._read(pool, "alpha")) == 1  # read-only incarnation
            cache = self._cache(pool, "alpha")
            assert pool.evict("alpha")
            self._write_through_a_second_handle(
                self._db_path(pool, "alpha"), "2030-01-01T00:00:00", [7.0, 8.0]
            )
            assert len(self._read(pool, "alpha")) == 2  # the other process's run
            assert self._cache(pool, "alpha") is cache
            assert (cache.stats.cold_builds, cache.stats.incremental_refreshes) == (1, 1)
        finally:
            pool.close()

    def test_an_unchanged_tenant_is_a_warm_hit_after_a_reopen(self, tmp_path):
        pool = self._seeded(tmp_path)
        try:
            self._read(pool, "alpha")
            cache = self._cache(pool, "alpha")
            pool.get("beta")
            pool.get("gamma")  # LRU: alpha closes
            assert "alpha" not in pool
            self._read(pool, "alpha")
            assert self._cache(pool, "alpha") is cache
            assert (cache.stats.cold_builds, cache.stats.warm_hits) == (1, 1)
            assert pool.stats.misses == 4  # the reopen is still a pool miss
        finally:
            pool.close()

    def test_an_older_copy_of_the_file_is_a_cold_build(self, tmp_path):
        """Watermarks only grow: one that went down drops the project's views."""
        import shutil

        pool = self._seeded(tmp_path)
        path = self._db_path(pool, "alpha")
        try:
            assert pool.evict("alpha")
            shutil.copy(path, tmp_path / "older.db")  # closed: no WAL left beside it
            with pool.checkout("alpha") as shard:
                shard.append([_log(shard, i) for i in range(4)])
            assert len(self._read(pool, "alpha")) == 2
            cache = self._cache(pool, "alpha")
            assert pool.evict("alpha")
            shutil.copy(tmp_path / "older.db", path)
            cold = cache.stats.cold_builds
            assert len(self._read(pool, "alpha")) == 1  # not the cached 2
            assert cache.stats.cold_builds == cold + 1
        finally:
            pool.close()

    def test_a_failed_close_retains_nothing(self, tmp_path, monkeypatch):
        pool = self._seeded(tmp_path)
        try:
            self._read(pool, "alpha")
            alpha = pool.get("alpha")
            alpha.append([_log(alpha, 9)])
            cache = alpha.session.query.cache
            original_flush = alpha.session.flush

            def failing_once(wait=True):
                monkeypatch.setattr(alpha.session, "flush", original_flush)
                raise RuntimeError("disk hiccup")

            monkeypatch.setattr(alpha.session, "flush", failing_once)
            with pytest.raises(RuntimeError, match="disk hiccup"):
                pool.evict("alpha")
            assert "alpha" not in pool._detached
            assert pool.get("alpha") is alpha  # reinstated...
            assert alpha.session.query.cache is cache  # ...its own cache with it
        finally:
            pool.close()

    def test_an_append_to_an_evicted_tenant_fetches_only_the_append(self, tmp_path):
        pool = self._seeded(tmp_path)
        try:
            self._read(pool, "alpha")
            cache = self._cache(pool, "alpha")
            assert pool.evict("alpha")
            with pool.checkout("alpha") as shard:  # a new incarnation: a new run
                shard.append([_log(shard, i) for i in range(2)])
            before = cache.stats.as_dict()
            self._read(pool, "alpha")
            after = cache.stats.as_dict()
            assert after["fetched_rows"] - before["fetched_rows"] == 2
            assert after["incremental_refreshes"] - before["incremental_refreshes"] == 1
            assert after["cold_builds"] == before["cold_builds"]
        finally:
            pool.close()

    def test_the_detached_views_share_the_pools_one_bound(self, tmp_path):
        import gc
        import weakref

        pool = self._seeded(tmp_path)
        try:
            self._read(pool, "alpha")
            cache = weakref.ref(self._cache(pool, "alpha"))
            assert pool.evict("alpha")
            gc.collect()
            assert cache() is not None
            for i in range(pool.capacity + 1):
                pool.get(f"t{i}")
                assert pool.evict(f"t{i}")
            gc.collect()
            assert cache() is None
        finally:
            pool.close()
