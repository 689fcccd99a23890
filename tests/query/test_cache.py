"""Tests for the materialized pivot-view cache (repro.query.cache).

The invariant under test throughout: whatever tier serves a read — fast,
warm, incremental, or cold — the frame must equal a from-scratch
``build_dataframe`` over the same database, and a kept SQL answer must
equal the statement run now.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import dataframe_view
from repro.core.dataframe_view import build_dataframe
from repro.dataframe import DataFrame, frame_body, wire
from repro.errors import DatabaseError
from repro.query import PivotViewCache
from repro.relational.database import Database
from repro.relational.queries import latest
from repro.relational.records import LogRecord, LoopRecord
from repro.relational.repositories import LogRepository, LoopRepository
from repro.relational.sql import run_sql
from repro.storage import MemoryRelationalStore


def rebuilt_body(db, names, *, latest_only=False) -> bytes:
    """What the cache must serve: the wire form of a pivot built afresh."""
    frame = build_dataframe(db, "p", names)
    return frame_body(latest(frame) if latest_only else frame)


@pytest.fixture()
def encoded(monkeypatch):
    """Spy on the fragment encoder: one entry per call, its row count."""
    calls: list[int] = []
    real = wire.rows_fragment

    def spy(records):
        calls.append(len(records))
        return real(records)

    monkeypatch.setattr(wire, "rows_fragment", spy)
    return calls


def add_run(db, tstamp: str, *, loops: int = 3, names=("loss", "acc"), filename="train.py"):
    """One run of `loops` epoch iterations, each logging every name."""
    loop_repo, log_repo = LoopRepository(db), LogRepository(db)
    loop_rows, log_rows = [], []
    for i in range(loops):
        ctx = i + 1
        loop_rows.append(LoopRecord("p", tstamp, filename, ctx, 0, "epoch", i, str(i)))
        for j, name in enumerate(names):
            log_rows.append(LogRecord.create("p", tstamp, filename, ctx, name, i + j * 0.1))
    loop_repo.add_many(loop_rows)
    log_repo.add_many(log_rows)


class TestTiers:
    def test_cold_build_equals_rebuild(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        frame = cache.dataframe(db, "p", ["loss", "acc"])
        assert frame.equals(build_dataframe(db, "p", ["loss", "acc"]))
        assert cache.stats.cold_builds == 1

    def test_fast_hit_serves_without_watermark_probe(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        first = cache.dataframe(db, "p", ["loss"])
        second = cache.dataframe(db, "p", ["loss"])
        assert second.equals(first)
        assert cache.stats.fast_hits == 1
        assert cache.stats.cold_builds == 1

    def test_generation_bump_revalidates_to_warm_hit(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss"])
        cache.bump_generation("p")
        frame = cache.dataframe(db, "p", ["loss"])
        assert cache.stats.warm_hits == 1
        assert frame.equals(build_dataframe(db, "p", ["loss"]))

    def test_append_triggers_incremental_refresh(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss", "acc"])
        add_run(db, "t2")
        cache.bump_generation("p")
        frame = cache.dataframe(db, "p", ["loss", "acc"])
        assert cache.stats.incremental_refreshes == 1
        assert len(frame) == 6
        assert frame.equals(build_dataframe(db, "p", ["loss", "acc"]))

    def test_shared_handle_write_detected_without_generation_bump(self, db):
        """Writers sharing the Database handle are caught via write_version."""
        add_run(db, "t1")
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss"])
        add_run(db, "t2")  # no bump_generation on purpose
        frame = cache.dataframe(db, "p", ["loss"])
        assert frame.equals(build_dataframe(db, "p", ["loss"]))
        assert cache.stats.fast_hits == 0

    def test_incremental_append_to_existing_run(self, db):
        """New records for an already-cached run merge into its rows."""
        add_run(db, "t1", loops=2)
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss", "acc"])
        # The same run keeps going: two more epochs arrive later.
        loop_repo, log_repo = LoopRepository(db), LogRepository(db)
        for i in (2, 3):
            ctx = i + 1
            loop_repo.add(LoopRecord("p", "t1", "train.py", ctx, 0, "epoch", i, str(i)))
            log_repo.add(LogRecord.create("p", "t1", "train.py", ctx, "loss", float(i)))
            log_repo.add(LogRecord.create("p", "t1", "train.py", ctx, "acc", i + 0.1))
        frame = cache.dataframe(db, "p", ["loss", "acc"])
        assert len(frame) == 4
        assert frame.equals(build_dataframe(db, "p", ["loss", "acc"]))


class TestLoopRewrites:
    def test_replaced_loop_row_forces_run_reread(self, db):
        """INSERT OR REPLACE on a cached run's loop must refresh its annotations."""
        add_run(db, "t1", loops=2)
        cache = PivotViewCache()
        before = cache.dataframe(db, "p", ["loss"])
        assert "0" in before["epoch_value"].to_list()
        # Rewrite iteration 0's value; same primary key, fresh rowid.
        LoopRepository(db).add(LoopRecord("p", "t1", "train.py", 1, 0, "epoch", 0, "relabeled"))
        frame = cache.dataframe(db, "p", ["loss"])
        assert "relabeled" in frame["epoch_value"].to_list()
        assert frame.equals(build_dataframe(db, "p", ["loss"]))
        assert cache.stats.incremental_refreshes == 1


class TestPartition:
    def test_disjoint_names_merge_into_one_group_incrementally(self, db):
        """A delta run where two names first co-occur must coarsen the partition."""
        add_run(db, "t1", names=("a_metric",))
        add_run(db, "t2", names=("b_metric",), filename="infer.py")
        cache = PivotViewCache()
        split = cache.dataframe(db, "p", ["a_metric", "b_metric"])
        assert split.equals(build_dataframe(db, "p", ["a_metric", "b_metric"]))
        add_run(db, "t3", names=("a_metric", "b_metric"))
        cache.bump_generation("p")
        merged = cache.dataframe(db, "p", ["a_metric", "b_metric"])
        assert merged.equals(build_dataframe(db, "p", ["a_metric", "b_metric"]))

    def test_permutations_share_one_view_state(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        forward = cache.dataframe(db, "p", ["loss", "acc"])
        backward = cache.dataframe(db, "p", ["acc", "loss"])
        assert len(cache) == 1
        assert cache.stats.cold_builds == 1
        assert forward.columns[-2:] == ["loss", "acc"]
        assert backward.columns[-2:] == ["acc", "loss"]
        assert backward.equals(build_dataframe(db, "p", ["acc", "loss"]))


class TestLifecycle:
    def test_returned_frames_are_isolated_copies(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        frame = cache.dataframe(db, "p", ["loss"])
        frame["loss"] = [None] * len(frame)
        again = cache.dataframe(db, "p", ["loss"])
        assert again["loss"].to_list() != frame["loss"].to_list()

    def test_capacity_evicts_coldest_view(self, db):
        add_run(db, "t1")
        cache = PivotViewCache(capacity=1)
        cache.dataframe(db, "p", ["loss"])
        cache.dataframe(db, "p", ["acc"])
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_invalidate_drops_project_views(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss"])
        assert cache.invalidate("p") == 1
        assert len(cache) == 0
        cache.dataframe(db, "p", ["loss"])
        assert cache.stats.cold_builds == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PivotViewCache(capacity=0)

    def test_empty_names_returns_empty_frame(self, db):
        cache = PivotViewCache()
        frame = cache.dataframe(db, "p", [])
        assert frame.empty
        assert len(cache) == 0


class TestBodies:
    """``dataframe_body``: the wire form, kept beside the frame it is of."""

    def test_a_repeat_read_returns_the_same_bytes_and_counts_both(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        first = cache.dataframe_body(db, "p", ["loss", "acc"])
        assert first == rebuilt_body(db, ["loss", "acc"])
        assert cache.dataframe_body(db, "p", ["loss", "acc"]) is first
        stats = cache.stats
        assert (stats.lookups, stats.cold_builds, stats.fast_hits, stats.body_hits) == (2, 1, 1, 1)

    def test_a_frame_read_first_is_encoded_once_by_the_first_body_read(self, db, encoded):
        add_run(db, "t1")
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss"])
        body = cache.dataframe_body(db, "p", ["loss"])
        assert cache.dataframe_body(db, "p", ["loss"]) is body
        assert encoded == [3] and cache.stats.body_hits == 1

    def test_request_orders_share_a_view_but_not_a_body(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        ab = cache.dataframe_body(db, "p", ["loss", "acc"])
        ba = cache.dataframe_body(db, "p", ["acc", "loss"])
        assert len(cache) == 1
        assert json.loads(ab)["columns"][-2:] == ["loss", "acc"]
        assert json.loads(ba)["columns"][-2:] == ["acc", "loss"]
        assert ba == rebuilt_body(db, ["acc", "loss"])
        assert cache.dataframe_body(db, "p", ["loss", "acc"]) is ab

    def test_an_append_replaces_the_body_with_the_frame(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        stale = cache.dataframe_body(db, "p", ["loss"])
        add_run(db, "t2")
        fresh = cache.dataframe_body(db, "p", ["loss"])
        assert fresh is not stale
        assert fresh == rebuilt_body(db, ["loss"])
        assert cache.stats.incremental_refreshes == 1 and cache.stats.body_hits == 0

    def test_another_views_sync_drops_this_views_body_too(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        stale = cache.dataframe_body(db, "p", ["loss"])
        stale_latest = cache.dataframe_body(db, "p", ["loss"], latest=True)
        add_run(db, "t2")
        cache.dataframe(db, "p", ["acc"])  # syncs the records both views share
        # A fast hit by the generation tiers, yet the frame under it moved.
        fresh = cache.dataframe_body(db, "p", ["loss"])
        assert fresh is not stale and len(json.loads(fresh)["records"]) == 6
        fresh_latest = cache.dataframe_body(db, "p", ["loss"], latest=True)
        assert fresh_latest != stale_latest
        assert fresh_latest == rebuilt_body(db, ["loss"], latest_only=True)

    def test_eviction_and_invalidation_release_the_body(self, db):
        add_run(db, "t1")
        cache = PivotViewCache(capacity=1)
        body = cache.dataframe_body(db, "p", ["loss"])
        cache.dataframe_body(db, "p", ["acc"])  # evicts the loss view
        assert list(cache._entries) == [("p", ("acc",))]
        held = [b for entry in cache._entries.values() for b in entry.bodies.values()]
        assert len(held) == 1 and body not in held
        cache.invalidate("p")
        assert not cache._entries and not cache._records

    def test_a_failed_encode_caches_nothing(self, db, monkeypatch):
        add_run(db, "t1")
        cache = PivotViewCache()
        real = wire.rows_fragment

        def refuse(records):
            raise ValueError("cannot encode")

        monkeypatch.setattr(wire, "rows_fragment", refuse)
        with pytest.raises(ValueError, match="cannot encode"):
            cache.dataframe_body(db, "p", ["loss"])
        monkeypatch.setattr(wire, "rows_fragment", real)
        assert cache.dataframe_body(db, "p", ["loss"]) == rebuilt_body(db, ["loss"])

    def test_empty_names_encode_the_empty_frame(self, db):
        cache = PivotViewCache()
        assert cache.dataframe_body(db, "p", []) == frame_body(DataFrame())
        assert json.loads(cache.dataframe_body(db, "p", [], latest=True)) == {
            "columns": [], "records": [], "rows": 0
        }
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_the_latest_body_is_kept_beside_the_full_body(self, db):
        add_run(db, "t1")
        add_run(db, "t2", loops=2)
        cache = PivotViewCache()
        full = cache.dataframe_body(db, "p", ["loss"])
        newest = cache.dataframe_body(db, "p", ["loss"], latest=True)
        assert newest == rebuilt_body(db, ["loss"], latest_only=True)
        assert json.loads(newest)["rows"] == 2
        assert cache.dataframe_body(db, "p", ["loss"], latest=True) is newest
        assert cache.dataframe_body(db, "p", ["loss"]) is full
        assert cache.stats.body_hits == 2
        add_run(db, "t3", loops=1)
        again = cache.dataframe_body(db, "p", ["loss"], latest=True)
        assert json.loads(again)["rows"] == 1
        assert again == rebuilt_body(db, ["loss"], latest_only=True)

    def test_a_joined_view_is_one_block(self, db, encoded):
        add_run(db, "t1", names=("a_metric",))
        add_run(db, "t2", names=("b_metric",), filename="infer.py")
        cache = PivotViewCache()
        body = cache.dataframe_body(db, "p", ["a_metric", "b_metric"])
        assert encoded == [3]  # the joined frame's rows, not a fragment per run
        assert body == rebuilt_body(db, ["a_metric", "b_metric"])


class TestDeltaCost:
    """After a 16-row append to a 4,000-row view, the next body read costs
    what changed: the dirty run's rows are pivoted and encoded, no others."""

    NAMES = ["m0", "m1", "m2", "m3"]

    @pytest.fixture()
    def rows_built(self, monkeypatch):
        built: list[int] = []
        real = dataframe_view._new_row

        def spy(record):
            built.append(1)
            return real(record)

        monkeypatch.setattr(dataframe_view, "_new_row", spy)
        return built

    def _warm(self, db):
        for n in range(10):
            add_run(db, f"t{n:02d}", loops=100, names=self.NAMES)
        cache = PivotViewCache()
        assert json.loads(cache.dataframe_body(db, "p", self.NAMES))["rows"] == 1000
        assert cache.stats.fetched_rows == 4000
        return cache

    def _read(self, db, cache, encoded, rows_built):
        """The next body read: (log rows fetched, rows encoded, rows built)."""
        before = cache.stats.fetched_rows
        del encoded[:], rows_built[:]
        body = cache.dataframe_body(db, "p", self.NAMES)
        cost = (cache.stats.fetched_rows - before, list(encoded), len(rows_built))
        assert body == rebuilt_body(db, self.NAMES)
        assert cache.stats.incremental_refreshes == 1
        return cost

    def test_a_new_run_is_the_only_one_pivoted_and_encoded(self, db, encoded, rows_built):
        cache = self._warm(db)
        add_run(db, "t10", loops=4, names=self.NAMES)  # 16 log rows
        assert self._read(db, cache, encoded, rows_built) == (16, [4], 4)

    def test_a_grown_run_is_the_only_one_pivoted_and_encoded(self, db, encoded, rows_built):
        cache = self._warm(db)
        loops, logs = LoopRepository(db), LogRepository(db)
        for i in range(100, 104):  # the newest run keeps going: 16 more rows
            loops.add(LoopRecord("p", "t09", "train.py", i + 1, 0, "epoch", i, str(i)))
            logs.add_many([LogRecord.create("p", "t09", "train.py", i + 1, m, float(i)) for m in self.NAMES])
        # Its loop rows moved, so the run is re-read whole (400 + 16), not
        # just the delta; the other nine runs are neither read nor touched.
        assert self._read(db, cache, encoded, rows_built) == (416, [104], 104)


class TestSharedRecords:
    """Views share per-name records; what a view shows must not depend on it."""

    def test_run_order_is_first_appearance_among_the_requested_names(self, db):
        """A logs x, B logs y, then A logs y: ``y`` appeared in B first."""
        logs = LogRepository(db)
        logs.add(LogRecord.create("p", "tA", "train.py", 0, "x", 1.0))
        logs.add(LogRecord.create("p", "tB", "train.py", 0, "y", 2.0))
        logs.add(LogRecord.create("p", "tA", "train.py", 0, "y", 3.0))
        for read_x_first in (False, True):
            cache = PivotViewCache()
            if read_x_first:
                assert cache.dataframe(db, "p", ["x"])["tstamp"].to_list() == ["tA"]
            frame = cache.dataframe(db, "p", ["y"])
            assert frame["tstamp"].to_list() == ["tB", "tA"]
            assert frame.equals(build_dataframe(db, "p", ["y"]))
            both = cache.dataframe(db, "p", ["x", "y"])
            assert both["tstamp"].to_list() == ["tA", "tB"]
            assert both.equals(build_dataframe(db, "p", ["x", "y"]))

    def test_new_name_set_fetches_the_backfill_not_the_project(self, db):
        """After k rows land in old runs, a new name set reads O(k + newest run)."""
        runs, epochs = 20, 5
        for n in range(runs):
            add_run(db, f"t{n:02d}", loops=epochs, names=("loss",))
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss"])
        assert cache.stats.fetched_rows == runs * epochs
        # The backfill shape: one more recorded run, then a name nobody
        # logged lands in the two newest runs, once per epoch.
        add_run(db, f"t{runs:02d}", loops=epochs, names=("loss",))
        backfilled = [
            LogRecord.create("p", f"t{n:02d}", "train.py", ctx, "hs", float(ctx))
            for n in (runs - 1, runs)
            for ctx in range(1, epochs + 1)
        ]
        LogRepository(db).add_many(backfilled)
        frame = cache.dataframe(db, "p", ["loss", "hs"])
        assert frame.equals(build_dataframe(db, "p", ["loss", "hs"]))
        assert cache.stats.cold_builds == 2
        assert cache.stats.fetched_rows == runs * epochs + epochs + len(backfilled)

    def test_a_names_records_leave_with_its_last_view(self, db):
        add_run(db, "t1")
        cache = PivotViewCache(capacity=1)
        cache.dataframe(db, "p", ["loss", "acc"])
        cache.dataframe(db, "p", ["acc"])  # evicts the only view naming loss
        assert cache.stats.fetched_rows == 6  # acc was shared, not re-read
        # While nobody holds loss, a re-log overwrites its first epoch: the
        # pivots made from the dropped records must have left with them.
        LogRepository(db).add(LogRecord.create("p", "t1", "train.py", 1, "loss", 99.0))
        frame = cache.dataframe(db, "p", ["loss"])
        assert frame.equals(build_dataframe(db, "p", ["loss"]))
        assert cache.stats.fetched_rows == 10  # loss was dropped, so read again
        assert cache.invalidate() == 1
        cache.dataframe(db, "p", ["loss"])
        assert cache.stats.fetched_rows == 14

    def test_failed_sync_leaves_no_half_applied_state(self, db):
        """A read that dies mid-refresh must not poison the next one."""
        add_run(db, "t1", loops=2)
        cache = PivotViewCache()
        cache.dataframe(db, "p", ["loss"])
        LoopRepository(db).add(LoopRecord("p", "t1", "train.py", 1, 0, "epoch", 0, "relabeled"))
        add_run(db, "t2", loops=2)

        class DiesOnSecondFetch:
            def __init__(self, inner):
                self.inner, self.fetches = inner, 0

            def query(self, sql, params=()):
                if "FROM logs WHERE" in sql and "DISTINCT" not in sql:
                    self.fetches += 1
                    if self.fetches == 2:
                        raise RuntimeError("connection lost")
                return self.inner.query(sql, params)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        with pytest.raises(RuntimeError):
            cache.dataframe(DiesOnSecondFetch(db), "p", ["loss", "acc"])
        for names in (["loss"], ["loss", "acc"]):
            assert cache.dataframe(db, "p", names).equals(build_dataframe(db, "p", names))


class TestOtherConnections:
    """A commit through another connection to the file — a second handle,
    another process — moves ``write_version``, so no fast hit hides it."""

    def test_a_run_appended_by_another_handle_reaches_the_next_read(self, session):
        session.log("m", 1.0)
        session.commit("one")
        assert len(session.dataframe("m")) == 1
        other = Database(session.db.path)
        try:
            other_run = LogRecord.create(session.projid, "2099-01-01T00:00:00", "train.py", 0, "m", 2.0)
            LogRepository(other).add(other_run)
        finally:
            other.close()
        assert len(session.dataframe("m")) == 2
        assert session.sql("SELECT COUNT(*) AS n FROM logs WHERE value_name = 'm'").row(0)["n"] == 2

    def test_a_kept_answer_is_dropped_by_another_handles_commit(self, tmp_path):
        db, other = Database(tmp_path / "f.db"), Database(tmp_path / "f.db")
        try:
            add_run(db, "t1")
            cache = PivotViewCache()
            assert _sql(cache, db, COUNT).row(0)["n"] == 6
            add_run(other, "t2")
            assert _sql(cache, db, COUNT).row(0)["n"] == 12
            assert (cache.stats.sql_hits, cache.stats.sql_runs) == (0, 2)
        finally:
            other.close()
            db.close()


COUNT = "SELECT COUNT(*) AS n FROM logs"


def _sql(cache, db, statement, params=()):
    return cache.sql(db, "p", statement, params, lambda: run_sql(db, statement, params))


def _sql_body(cache, db, statement, params=()):
    return cache.sql_body(db, "p", statement, params, lambda: run_sql(db, statement, params))


class TestSqlAnswers:
    """Plain SQL statements as cache entries: served while nothing commits."""

    def test_a_repeat_statement_is_served_with_the_same_body(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        body = _sql_body(cache, db, COUNT)
        assert body == frame_body(run_sql(db, COUNT).frame)
        assert _sql_body(cache, db, COUNT) is body
        assert _sql(cache, db, COUNT).equals(run_sql(db, COUNT).frame)
        assert (cache.stats.sql_hits, cache.stats.sql_runs) == (2, 1)
        assert cache.stats.lookups == 0  # not a view read

    def test_params_are_part_of_the_key(self, db):
        add_run(db, "t1", names=("loss",))
        cache = PivotViewCache()
        by_name = "SELECT COUNT(*) AS n FROM logs WHERE value_name = ?"
        assert _sql(cache, db, by_name, ("loss",)).row(0)["n"] == 3
        assert _sql(cache, db, by_name, ("acc",)).row(0)["n"] == 0
        assert _sql(cache, db, by_name, ["loss"]).row(0)["n"] == 3
        assert (cache.stats.sql_hits, cache.stats.sql_runs) == (1, 2)

    def test_a_write_or_a_generation_bump_runs_it_again(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        _sql(cache, db, COUNT)
        add_run(db, "t2")
        assert _sql(cache, db, COUNT).row(0)["n"] == 12
        cache.bump_generation("p")
        _sql(cache, db, COUNT)
        assert (cache.stats.sql_hits, cache.stats.sql_runs) == (0, 3)

    def test_the_freshness_values_are_read_before_the_statement_runs(self, tmp_path):
        db, other = Database(tmp_path / "f.db"), Database(tmp_path / "f.db")
        cache = PivotViewCache()

        def run_then_commit_elsewhere():
            answer = run_sql(db, COUNT)
            add_run(other, "late")
            return answer

        try:
            stale = cache.sql(db, "p", COUNT, (), run_then_commit_elsewhere)
            assert stale.row(0)["n"] == 0
            assert _sql(cache, db, COUNT).row(0)["n"] == 6
            assert cache.stats.sql_hits == 0
        finally:
            other.close()
            db.close()

    def test_returned_frames_are_copies(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        _sql(cache, db, COUNT)["n"] = [99]
        assert _sql(cache, db, COUNT).row(0)["n"] == 6

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT random() AS r",
            "SELECT datetime('now') AS t",
            "SELECT CURRENT_TIMESTAMP AS t",
            "SELECT COUNT(*) AS n FROM logs WHERE tstamp < strftime('%s', 'now')",
            "SELECT name FROM sqlite_master",
        ],
    )
    def test_an_unstable_statement_runs_on_every_read(self, db, statement):
        cache = PivotViewCache()
        for _ in range(3):
            _sql(cache, db, statement)
            _sql_body(cache, db, statement)
        assert (cache.stats.sql_hits, cache.stats.sql_runs) == (0, 6)
        assert not cache._sql

    def test_the_temp_pivot_is_never_kept(self, session):
        session.log("loss", 0.5)
        session.sql("SELECT COUNT(*) AS n FROM pivot", names=["loss"])
        for _ in range(2):
            assert session.sql("SELECT COUNT(*) AS n FROM pivot").row(0)["n"] == 1
        assert session.query.stats.sql_hits == 0

    def test_the_authorizer_sees_every_execution(self, db):
        # set_authorizer expires the connection's prepared statements, so a
        # statement from sqlite3's statement cache is compiled (and judged)
        # again: the verdict never leaks from one execution to the next.
        for _ in range(3):
            assert run_sql(db, "SELECT random() AS r").stable is False
            assert run_sql(db, COUNT).stable is True
        with pytest.raises(DatabaseError, match="SELECT/WITH"):
            run_sql(db, "WITH t AS (SELECT 1) DELETE FROM logs")
        assert run_sql(db, COUNT).stable is True

    @pytest.mark.parametrize("statement", ["DELETE FROM logs", "WITH t AS (SELECT 1) DELETE FROM logs"])
    def test_a_refused_write_keeps_nothing(self, db, statement):
        add_run(db, "t1")
        cache = PivotViewCache()
        for _ in range(2):
            with pytest.raises(DatabaseError, match="SELECT/WITH"):
                _sql(cache, db, statement)
        assert not cache._sql
        assert db.count("logs") == 6

    def test_a_burst_of_statements_evicts_no_view(self, db):
        add_run(db, "t1")
        cache = PivotViewCache(capacity=2)
        cache.dataframe(db, "p", ["loss"])
        cache.dataframe(db, "p", ["acc"])
        for k in range(10):
            _sql(cache, db, f"SELECT {k} AS k, COUNT(*) AS n FROM logs")
        assert len(cache._sql) == 2 and len(cache) == 2
        assert cache.stats.evictions == 0
        cache.dataframe(db, "p", ["loss"])
        assert cache.stats.fast_hits == 1
        _sql(cache, db, "SELECT 9 AS k, COUNT(*) AS n FROM logs")
        _sql(cache, db, "SELECT 0 AS k, COUNT(*) AS n FROM logs")  # the LRU dropped it
        assert (cache.stats.sql_hits, cache.stats.sql_runs) == (1, 11)

    def test_invalidate_drops_the_projects_answers(self, db):
        add_run(db, "t1")
        cache = PivotViewCache()
        _sql(cache, db, COUNT)
        cache.invalidate("other")
        _sql(cache, db, COUNT)
        cache.invalidate("p")
        _sql(cache, db, COUNT)
        assert (cache.stats.sql_hits, cache.stats.sql_runs) == (1, 2)


# ---------------------------------------------------------------------------
# The cache equals a rebuild, by property
# ---------------------------------------------------------------------------

PROPERTY_NAMES = ("a", "b", "c", "d")
#: What reads ask for: the logged names and one nobody ever logs.
READ_NAMES = PROPERTY_NAMES + ("never",)
#: Values JSON has no spelling for; the wire form sends them as null.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
#: Plain statements the machine reads through the cache: (statement, params).
SQL_READS = (
    ("SELECT value_name, COUNT(*) AS n FROM logs GROUP BY value_name ORDER BY value_name", ()),
    ("SELECT COUNT(*) AS n, MAX(seq) AS top FROM logs", ()),
    ("SELECT tstamp, filename, COUNT(*) AS n FROM loops GROUP BY 1, 2 ORDER BY 1, 2", ()),
    ("SELECT ctx_id, value FROM logs WHERE value_name = ? ORDER BY seq", ("a",)),
    ("SELECT ctx_id, value FROM logs WHERE value_name = ? ORDER BY seq", ("b",)),
    # Volatile (a date function), so never kept; its answer is still the count.
    ("SELECT COUNT(*) AS n FROM logs WHERE julianday('now') > 0", ()),
)


class CacheEqualsRebuild(RuleBasedStateMachine):
    """Random appends, backfills, loop rewrites, commits through a second
    connection, reads and invalidations over one project; whatever tier
    serves a read, the frame is ``build_dataframe``'s and the body is its
    wire form, byte for byte — and a plain SQL answer is the statement run
    now, uncached."""

    capacity = 32
    #: ``sqlite`` (a file; a second handle can write to it) or ``memory``.
    backend = "sqlite"

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp() if self.backend == "sqlite" else None
        self._open()
        self.cache = PivotViewCache(capacity=self.capacity)
        self.other = PivotViewCache()  # a second cache on the same handle
        #: per run: (tstamp, filename, [(ctx_id, parent, loop_name, iteration)])
        self.runs: list[tuple[str, str, list[tuple[int, int, str, int]]]] = []
        self.values = 0
        self.reads = 0  # per cache: every read goes to both
        self.sql_reads = 0  # per cache, likewise

    @property
    def path(self) -> str:
        return os.path.join(self.dir, "flor.db")

    def _open(self):
        self.db = Database(self.path) if self.dir else MemoryRelationalStore()
        self.logs, self.loops = LogRepository(self.db), LoopRepository(self.db)

    def teardown(self):
        self.db.close()
        if self.dir:
            shutil.rmtree(self.dir)

    @rule()
    def reopen(self):
        """Evict and reattach, as the service pool does: the caches are
        handed to the shard's next incarnation with a generation bump (on a
        file, a new handle whose ``write_version`` restarts; in memory, the
        one handle there is)."""
        if self.dir:
            self.db.close()
            self._open()
        for cache in (self.cache, self.other):
            cache.bump_generation("p")

    @precondition(lambda self: self.dir and self.runs)
    @rule(pick=st.integers(0, 1000), name=st.sampled_from(PROPERTY_NAMES), where=st.integers(0, 1000))
    def log_through_another_connection(self, pick, name, where):
        """A commit neither cache's generation hears of: only the handle's
        ``write_version`` (its ``data_version`` half) can tell."""
        tstamp, filename, contexts = self.runs[pick % len(self.runs)]
        ctx_ids = [0] + [c for c, *_ in contexts]
        self.values += 1
        other = Database(self.path)
        try:
            ctx = ctx_ids[where % len(ctx_ids)]
            LogRepository(other).add(LogRecord.create("p", tstamp, filename, ctx, name, self.values))
        finally:
            other.close()

    def _log(self, tstamp, filename, ctx_id, name, value=None):
        self.values += 1
        value = self.values if value is None else value
        self.logs.add(LogRecord.create("p", tstamp, filename, ctx_id, name, value))

    @rule(
        names=st.sets(st.sampled_from(PROPERTY_NAMES), min_size=1),
        epochs=st.integers(0, 3),
        steps=st.sampled_from([0, 2]),
        inner=st.sampled_from(["step", "batch"]),
        filename=st.sampled_from(["train.py", "infer.py"]),
        holes=st.integers(0, 255),
        per_epoch=st.sets(st.sampled_from(PROPERTY_NAMES), max_size=2),
        share_tstamp=st.booleans(),
    )
    def record_run(self, names, epochs, steps, inner, filename, holes, per_epoch, share_tstamp):
        """A run; a later one may enter a loop (``inner``) no earlier run had,
        or share the previous run's tstamp under the other filename."""
        tstamp = f"t{len(self.runs):03d}"
        if share_tstamp and self.runs:
            shared, last = self.runs[-1][0], self.runs[-1][1]
            other = "infer.py" if last == "train.py" else "train.py"
            if (shared, other) not in {(t, f) for t, f, _c in self.runs}:
                tstamp, filename = shared, other
        contexts, ctx_id = [], 0
        for epoch in range(epochs):
            ctx_id += 1
            epoch_ctx = ctx_id
            contexts.append((epoch_ctx, 0, "epoch", epoch))
            for step in range(steps):
                ctx_id += 1
                contexts.append((ctx_id, epoch_ctx, inner, step))
        self.loops.add_many(
            [LoopRecord("p", tstamp, filename, c, parent, loop, i, str(i)) for c, parent, loop, i in contexts]
        )
        deepest = [c for c, _p, loop, _i in contexts if loop == (inner if steps else "epoch")] or [0]
        for position, (ctx, name) in enumerate((c, n) for c in deepest for n in sorted(names)):
            if not holes >> (position % 8) & 1:  # some positions stay unlogged, for later
                self._log(tstamp, filename, ctx, name)
        # Per-epoch names: with steps under them they are shallow, and broadcast.
        for ctx in [c for c, _p, loop, _i in contexts if loop == "epoch"]:
            for name in sorted(per_epoch):
                self._log(tstamp, filename, ctx, name)
        self.runs.append((tstamp, filename, contexts))

    @precondition(lambda self: self.runs)
    @rule(
        pick=st.integers(0, 1000),
        name=st.sampled_from(PROPERTY_NAMES),
        where=st.integers(0, 1000),
        value=st.one_of(st.none(), st.sampled_from(NON_FINITE)),
    )
    def log_into_an_old_run(self, pick, name, where, value):
        """The backfill shape: a (maybe new) name lands in a run recorded earlier,
        at any depth — top level and epoch level broadcast, and re-logs overwrite.
        The value may be NaN or ±Infinity."""
        tstamp, filename, contexts = self.runs[pick % len(self.runs)]
        ctx_ids = [0] + [c for c, *_ in contexts]
        self._log(tstamp, filename, ctx_ids[where % len(ctx_ids)], name, value)

    @precondition(lambda self: any(contexts for *_, contexts in self.runs))
    @rule(pick=st.integers(0, 1000), where=st.integers(0, 1000), label=st.sampled_from(["x", "y"]))
    def rewrite_a_loop_row(self, pick, where, label):
        looped = [run for run in self.runs if run[2]]
        tstamp, filename, contexts = looped[pick % len(looped)]
        ctx, parent, loop, i = contexts[where % len(contexts)]
        self.loops.add(LoopRecord("p", tstamp, filename, ctx, parent, loop, i, label))

    @rule(names=st.lists(st.sampled_from(READ_NAMES), min_size=1, unique=True))
    def read(self, names):
        expected = build_dataframe(self.db, "p", names)
        for cache in (self.cache, self.other):
            frame = cache.dataframe(self.db, "p", names)
            assert frame.columns == expected.columns
            assert repr(frame.to_records()) == repr(expected.to_records())  # NaN included
            assert frame.equals(expected)
        self.reads += 1

    @rule(names=st.lists(st.sampled_from(READ_NAMES), min_size=1, unique=True), newest=st.booleans())
    def read_body(self, names, newest):
        """The body of any requested order, whole or ``latest``, is the wire
        form of the rebuild byte for byte — whichever tier found it."""
        expected = rebuilt_body(self.db, names, latest_only=newest)
        for cache in (self.cache, self.other):
            assert cache.dataframe_body(self.db, "p", names, latest=newest) == expected
        self.reads += 1

    def _rows_a_sync_must_fetch(self, cache, names) -> int:
        """Log rows the next read of ``names`` has to pull, with no loop row
        rewritten since the cache last synced: the append delta of every name
        a live view holds, and the whole of each name nobody holds."""
        records = cache._records.get("p")
        held = set(records.names) if records else set()
        total = 0
        for name in held | set(names):
            (count,) = self.db.query_one(
                "SELECT COUNT(*) FROM logs WHERE projid = 'p' AND value_name = ? AND seq > ?",
                (name, records.log_seq if name in held else 0),
            )
            total += count
        return total

    @precondition(lambda self: self.runs)
    @rule(
        order=st.permutations(PROPERTY_NAMES),
        pick=st.integers(0, 1000),
        where=st.integers(0, 1000),
        rows=st.integers(1, 5),
    )
    def read_two_views_sharing_a_name_after_a_backfill(self, order, pick, where, rows):
        """Both views current, then ``rows`` of the name they share land in an
        old run: between them the two reads fetch exactly those rows (plus, at
        capacity one, the name the other view's eviction dropped)."""
        shared, left, right = order[:3]
        views = ([shared, left], [left, right, shared])
        for names in views:
            self.read(names)
        tstamp, filename, contexts = self.runs[pick % len(self.runs)]
        ctx_ids = [0] + [c for c, *_ in contexts]
        for n in range(rows):
            self._log(tstamp, filename, ctx_ids[(where + n) % len(ctx_ids)], shared)
        fetched = []
        for names in views:
            for cache in (self.cache, self.other):
                before = cache.stats.fetched_rows
                due = self._rows_a_sync_must_fetch(cache, names)
                assert cache.dataframe(self.db, "p", names).equals(build_dataframe(self.db, "p", names))
                assert cache.stats.fetched_rows - before == due
                fetched.append(due)
            self.reads += 1
        # ``other`` never evicts: the first view's read took the delta, the
        # second found the shared records already current.
        assert fetched[1::2] == [rows, 0]

    @rule(read=st.sampled_from(SQL_READS))
    def read_sql(self, read):
        statement, params = read
        expected = run_sql(self.db, statement, params).frame
        for cache in (self.cache, self.other):
            assert _sql(cache, self.db, statement, params).equals(expected)
            assert _sql_body(cache, self.db, statement, params) == frame_body(expected)
            assert (("p", statement, params) in cache._sql) == ("julianday" not in statement)
        self.sql_reads += 2

    @invariant()
    def every_sql_read_is_one_hit_or_one_run(self):
        for cache in (self.cache, self.other):
            assert cache.stats.sql_hits + cache.stats.sql_runs == self.sql_reads
            assert len(cache._sql) <= cache.capacity

    @invariant()
    def a_view_with_no_frame_holds_no_body(self):
        for cache in (self.cache, self.other):
            for entry in cache._entries.values():
                assert {order for order, _latest in entry.bodies} <= set(entry.frames)
                assert set(entry.parts) == set(entry.frames)

    @invariant()
    def every_read_is_one_lookup_in_one_tier(self):
        for cache in (self.cache, self.other):
            stats = cache.stats
            tiers = stats.fast_hits + stats.warm_hits + stats.incremental_refreshes + stats.cold_builds
            assert stats.lookups == tiers == self.reads
            assert stats.body_hits <= stats.lookups

    @rule(whole=st.booleans())
    def invalidate(self, whole):
        self.cache.invalidate(None if whole else "p")

    @rule()
    def note_write(self):
        self.cache.bump_generation("p")


class CacheEqualsRebuildAtCapacityOne(CacheEqualsRebuild):
    capacity = 1


class CacheEqualsRebuildInMemory(CacheEqualsRebuild):
    backend = "memory"


for _machine in (CacheEqualsRebuild, CacheEqualsRebuildAtCapacityOne, CacheEqualsRebuildInMemory):
    _machine.TestCase.settings = settings(
        max_examples=100, stateful_step_count=30, deadline=None, derandomize=True, print_blob=True
    )
TestCacheEqualsRebuild = CacheEqualsRebuild.TestCase
TestCacheEqualsRebuildAtCapacityOne = CacheEqualsRebuildAtCapacityOne.TestCase
TestCacheEqualsRebuildInMemory = CacheEqualsRebuildInMemory.TestCase
