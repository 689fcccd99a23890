"""Tests for higher-level query shapes: dimensions, latest, git view."""

from __future__ import annotations

import re
import sqlite3
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataframe_view import _new_row, build_dataframe
from repro.dataframe import DataFrame
from repro.errors import DatabaseError
from repro.query import PivotViewCache
from repro.relational.database import Database
from repro.relational.queries import (
    AnnotatedLog,
    LoopPosition,
    git_view,
    latest,
    long_format_frame,
    long_format_records,
)
from repro.relational.records import LogRecord, LoopRecord, Ts2VidRecord, decode_value
from repro.relational.repositories import LogRepository, LoopRepository, Ts2VidRepository
from repro.versioning.repository import Repository


@pytest.fixture()
def populated_db(db):
    """Two nested loops (epoch > step) with logs at both levels."""
    from repro.relational.repositories import LogRepository, LoopRepository

    loops = LoopRepository(db)
    logs = LogRepository(db)
    loops.add_many(
        [
            LoopRecord("p", "t1", "train.py", 1, 0, "epoch", 0, "0"),
            LoopRecord("p", "t1", "train.py", 2, 1, "step", 0, "b0"),
            LoopRecord("p", "t1", "train.py", 3, 1, "step", 1, "b1"),
            LoopRecord("p", "t1", "train.py", 4, 0, "epoch", 1, "1"),
        ]
    )
    logs.add_many(
        [
            LogRecord.create("p", "t1", "train.py", 2, "loss", 0.9),
            LogRecord.create("p", "t1", "train.py", 3, "loss", 0.7),
            LogRecord.create("p", "t1", "train.py", 1, "acc", 0.5),
            LogRecord.create("p", "t1", "train.py", 4, "acc", 0.6),
            LogRecord.create("p", "t1", "train.py", 0, "lr", 0.01),
        ]
    )
    return db


class TestLongFormat:
    def test_dimensions_follow_loop_ancestry(self, populated_db):
        records = long_format_records(populated_db, "p", ["loss"])
        assert len(records) == 2
        first = records[0]
        assert first.dimensions == {"epoch": 0, "step": 0}
        assert first.dimension_values == {"epoch_value": "0", "step_value": "b0"}
        assert first.depth == 2

    def test_top_level_log_has_no_dimensions(self, populated_db):
        records = long_format_records(populated_db, "p", ["lr"])
        assert records[0].dimensions == {}
        assert records[0].depth == 0

    def test_all_names_returned_when_unfiltered(self, populated_db):
        names = {r.value_name for r in long_format_records(populated_db, "p")}
        assert names == {"loss", "acc", "lr"}

    def test_long_format_frame_has_dimension_columns(self, populated_db):
        frame = long_format_frame(populated_db, "p", ["loss"])
        assert isinstance(frame, DataFrame)
        assert "epoch" in frame.columns and "step" in frame.columns
        assert len(frame) == 2

    def test_values_are_decoded(self, populated_db):
        records = long_format_records(populated_db, "p", ["acc"])
        assert {r.value for r in records} == {0.5, 0.6}

    def test_as_row_contains_identity_and_dims(self, populated_db):
        record = long_format_records(populated_db, "p", ["loss"])[0]
        row = record.as_row()
        assert row["filename"] == "train.py"
        assert row["value_name"] == "loss"
        assert row["epoch"] == 0


class TestPushdown:
    def test_value_names_filter_returns_strict_subset(self, populated_db):
        """A names filter narrows both the records and the fetched ancestry."""
        everything = long_format_records(populated_db, "p")
        only_loss = long_format_records(populated_db, "p", ["loss"])
        assert {r.value_name for r in only_loss} == {"loss"}
        assert 0 < len(only_loss) < len(everything)
        # Pushdown must not change annotation: same records, same dimensions.
        by_key = {(r.tstamp, r.ctx_id, r.value_name): r for r in everything}
        for record in only_loss:
            full = by_key[(record.tstamp, record.ctx_id, record.value_name)]
            assert record.dimensions == full.dimensions
            assert record.dimension_values == full.dimension_values

    def test_empty_value_names_returns_nothing(self, populated_db):
        assert long_format_records(populated_db, "p", []) == []

    def test_tstamp_range_bounds_are_inclusive(self, db):
        from repro.relational.repositories import LogRepository

        logs = LogRepository(db)
        for tstamp in ("t1", "t2", "t3"):
            logs.add(LogRecord.create("p", tstamp, "train.py", 0, "m", 1.0))
        assert {r.tstamp for r in long_format_records(db, "p", tstamp_range=("t2", None))} == {"t2", "t3"}
        assert {r.tstamp for r in long_format_records(db, "p", tstamp_range=(None, "t2"))} == {"t1", "t2"}
        assert {r.tstamp for r in long_format_records(db, "p", tstamp_range=("t2", "t2"))} == {"t2"}

    def test_seq_bounds_select_the_append_delta(self, db):
        from repro.relational.queries import log_watermark
        from repro.relational.repositories import LogRepository

        logs = LogRepository(db)
        logs.add(LogRecord.create("p", "t1", "train.py", 0, "m", 1.0))
        watermark = log_watermark(db, "p")
        logs.add(LogRecord.create("p", "t2", "train.py", 0, "m", 2.0))
        delta = long_format_records(db, "p", min_seq=watermark)
        assert [r.value for r in delta] == [2.0]
        upto = long_format_records(db, "p", max_seq=watermark)
        assert [r.value for r in upto] == [1.0]

    def test_run_keys_restrict_to_named_runs(self, db):
        from repro.relational.repositories import LogRepository

        logs = LogRepository(db)
        logs.add(LogRecord.create("p", "t1", "train.py", 0, "m", 1.0))
        logs.add(LogRecord.create("p", "t1", "infer.py", 0, "m", 2.0))
        logs.add(LogRecord.create("p", "t2", "train.py", 0, "m", 3.0))
        records = long_format_records(db, "p", run_keys=[("t1", "train.py")])
        assert [(r.tstamp, r.filename) for r in records] == [("t1", "train.py")]

    def test_empty_run_keys_returns_nothing(self, db):
        """Regression: [] must select nothing, not emit 'IN (VALUES )'."""
        from repro.relational.repositories import LogRepository

        LogRepository(db).add(LogRecord.create("p", "t1", "train.py", 0, "m", 1.0))
        assert long_format_records(db, "p", run_keys=[]) == []


class TestAncestryCycles:
    def test_loop_ancestry_terminates_on_parent_cycle(self, db):
        """A corrupted parent chain (a cycle) must not hang or recurse forever."""
        from repro.relational.repositories import LogRepository, LoopRepository

        loops = LoopRepository(db)
        loops.add_many(
            [
                LoopRecord("p", "t1", "train.py", 1, 2, "outer", 0, "a"),
                LoopRecord("p", "t1", "train.py", 2, 1, "inner", 0, "b"),
            ]
        )
        LogRepository(db).add(LogRecord.create("p", "t1", "train.py", 2, "m", 1.0))
        records = long_format_records(db, "p", ["m"])
        assert len(records) == 1
        # Each context contributes exactly once despite the cycle.
        assert records[0].dimensions == {"outer": 0, "inner": 0}

    def test_self_parent_counts_once(self, db):
        from repro.relational.repositories import LogRepository, LoopRepository

        LoopRepository(db).add(LoopRecord("p", "t1", "train.py", 1, 1, "loop", 3, "x"))
        LogRepository(db).add(LogRecord.create("p", "t1", "train.py", 1, "m", 1.0))
        records = long_format_records(db, "p", ["m"])
        assert records[0].dimensions == {"loop": 3}


# ---------------------------------------------------------------------------
# The annotator against the per-record walk it replaced
# ---------------------------------------------------------------------------

def _reference_annotate(db, projid, value_names=None, *, tstamp_range=None,
                        min_seq=None, max_seq=None, run_keys=None):
    """One ancestry walk per *record* over every loop row of the project, the
    filters applied in Python: what ``long_format_records`` must equal."""
    loops = {}
    for tstamp, filename, ctx, parent, name, iteration, value in db.query(
        "SELECT tstamp, filename, ctx_id, parent_ctx_id, loop_name, loop_iteration,"
        " iteration_value FROM loops WHERE projid = ?", (projid,)
    ):
        loops.setdefault((tstamp, filename), {})[ctx] = (parent, name, iteration, value)
    since, until = tstamp_range or (None, None)
    out = []
    for tstamp, filename, ctx, name, value, value_type, seq in db.query(
        "SELECT tstamp, filename, ctx_id, value_name, value, value_type, seq"
        " FROM logs WHERE projid = ? ORDER BY seq", (projid,)
    ):
        if (
            (value_names is not None and name not in value_names)
            or (since is not None and tstamp < since) or (until is not None and tstamp > until)
            or (min_seq is not None and seq <= min_seq) or (max_seq is not None and seq > max_seq)
            or (run_keys is not None and (tstamp, filename) not in run_keys)
        ):
            continue
        chain, seen, current = [], set(), ctx
        while current in loops.get((tstamp, filename), {}) and current not in seen:
            seen.add(current)
            chain.append(loops[(tstamp, filename)][current])
            current = chain[-1][0]
        chain.reverse()
        dimensions = {loop: iteration for _p, loop, iteration, _v in chain}
        dimension_values = {f"{loop}_value": v for _p, loop, _i, v in chain}
        out.append((projid, tstamp, filename, ctx, name, decode_value(value, value_type), seq,
                    dimensions, dimension_values, tuple(dimensions.items()), len(dimensions)))
    return out


def _reference_records(db, projid, value_names=None, **bounds):
    """The reference's rows as records, each with a position of its own."""
    return [
        AnnotatedLog(*row[:6], LoopPosition(row[9], tuple(row[8].items()), row[10]), row[6])
        for row in _reference_annotate(db, projid, value_names, **bounds)
    ]


def _fields(record):
    return (record.projid, record.tstamp, record.filename, record.ctx_id, record.value_name,
            record.value, record.seq, record.dimensions, record.dimension_values,
            record.dimension_key(), record.depth)


_RUNS = [("t1", "train.py"), ("t1", "infer.py"), ("t2", "train.py")]
#: One run's loop rows: ctx_id -> (parent, loop name, iteration).  Parents are
#: drawn from 0..5 whatever rows exist, so chains nest, dangle (a parent with
#: no row), point at themselves and cycle; names repeat along a chain.
_loop_rows = st.dictionaries(
    st.integers(1, 4),
    st.tuples(st.integers(0, 5), st.sampled_from(["epoch", "step"]), st.integers(0, 2)),
    max_size=4,
)
_forest = st.fixed_dictionaries({run: _loop_rows for run in _RUNS})
_logged = st.lists(
    st.tuples(st.sampled_from(_RUNS), st.integers(0, 5), st.sampled_from(["a", "b", "c"])),
    max_size=14,
)
_filters = st.fixed_dictionaries(
    {},
    optional={
        "value_names": st.lists(st.sampled_from(["a", "b", "c", "never"]), unique=True),
        "tstamp_range": st.tuples(
            st.sampled_from([None, "t1", "t2"]), st.sampled_from([None, "t1", "t2"])
        ),
        "min_seq": st.integers(0, 14),
        "max_seq": st.integers(0, 14),
        "run_keys": st.lists(st.sampled_from(_RUNS + [("t9", "none.py")]), unique=True),
    },
)


class TestAnnotatorEqualsThePerRecordWalk:
    @settings(max_examples=250, deadline=None, derandomize=True, print_blob=True)
    @given(forest=_forest, rewrites=_forest, logged=_logged, filters=_filters)
    def test_every_field_agrees_under_every_filter(self, forest, rewrites, logged, filters):
        db = Database(":memory:")
        try:
            loops, logs = LoopRepository(db), LogRepository(db)
            # ``rewrites`` lands second: INSERT OR REPLACE over some contexts.
            for generation, label in ((forest, "v"), (rewrites, "rewritten")):
                loops.add_many(
                    [
                        LoopRecord("p", tstamp, filename, ctx, parent, loop, i, f"{label}{i}")
                        for (tstamp, filename), rows in generation.items()
                        for ctx, (parent, loop, i) in rows.items()
                    ]
                )
            logs.add_many(
                [
                    LogRecord.create("p", tstamp, filename, ctx, name, n)
                    for n, ((tstamp, filename), ctx, name) in enumerate(logged)
                ]
            )
            logs.add(LogRecord.create("other", "t1", "train.py", 1, "a", -1))
            for kwargs in ({}, filters):
                names = kwargs.get("value_names")
                bounds = {k: v for k, v in kwargs.items() if k != "value_names"}
                got = long_format_records(db, "p", names, **bounds)
                assert [_fields(r) for r in got] == _reference_annotate(db, "p", **kwargs)
            # The views over it, cell for cell: the long frame, the cold pivot
            # and the cache, against the same pivot fed the reference's records.
            reference = _reference_records(db, "p")
            columns = list(dict.fromkeys(key for record in reference for key in record.as_row()))
            assert long_format_frame(db, "p").to_records() == [
                {column: record.as_row().get(column) for column in columns} for record in reference
            ]
            with mock.patch("repro.core.dataframe_view.long_format_records", _reference_records):
                expected = build_dataframe(db, "p", ["a", "b", "c"])
            for frame in (
                build_dataframe(db, "p", ["a", "b", "c"]),
                PivotViewCache().dataframe(db, "p", ["a", "b", "c"]),
            ):
                assert frame.columns == expected.columns
                assert frame.to_records() == expected.to_records()
        finally:
            db.close()


class TestSharedPositions:
    """Records of one context share one position; nothing a caller gets from a
    record lets it reach a sibling's."""

    def test_a_context_is_annotated_once_and_shared(self, populated_db):
        LogRepository(populated_db).add(LogRecord.create("p", "t1", "train.py", 2, "norm", 0.1))
        loss, _other, norm = long_format_records(populated_db, "p", ["loss", "norm"])
        assert (loss.ctx_id, norm.ctx_id) == (2, 2)
        assert norm.position is loss.position
        assert loss.position.key == (("epoch", 0), ("step", 0))

    def test_the_position_is_immutable(self, populated_db):
        record = long_format_records(populated_db, "p", ["loss"])[0]
        with pytest.raises(AttributeError):
            record.position.depth = 7
        with pytest.raises(TypeError):
            record.position.key[0] = ("epoch", 9)
        assert hash(record.position.key) == hash((("epoch", 0), ("step", 0)))

    @pytest.mark.parametrize(
        "view",
        [lambda r: r.as_row(), _new_row, lambda r: r.dimensions, lambda r: r.dimension_values],
        ids=["as_row", "_new_row", "dimensions", "dimension_values"],
    )
    def test_mutating_one_records_row_leaves_its_sibling_alone(self, populated_db, view):
        LogRepository(populated_db).add(LogRecord.create("p", "t1", "train.py", 2, "norm", 0.1))
        loss, _other, norm = long_format_records(populated_db, "p", ["loss", "norm"])
        before = dict(view(norm))
        mine = view(loss)
        for key in list(mine):
            mine[key] = "scribbled"
        mine["extra"] = 1
        assert view(norm) == before
        assert view(loss) != mine


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Connection.setlimit is 3.11+")
def test_more_runs_than_bind_variables_are_fetched_in_chunks(db):
    """The loop fetch names every run the scan returned — two variables a run
    — so it must stay under the connection's variable limit however many."""
    limit = 999  # SQLite's lowest default; this build's is far higher
    db._connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, limit)
    with pytest.raises(DatabaseError):  # the limit is really in force
        db.query(f"SELECT {','.join('?' * (limit + 1))}", list(range(limit + 1)))
    runs = limit // 2 + 21
    LoopRepository(db).add_many(
        [LoopRecord("p", f"t{n:04d}", "train.py", 1, 0, "epoch", n, str(n)) for n in range(runs)]
    )
    LogRepository(db).add_many(
        [LogRecord.create("p", f"t{n:04d}", "train.py", 1, "m", n) for n in range(runs)]
    )
    records = long_format_records(db, "p", ["m"])
    assert [r.dimensions for r in records] == [{"epoch": n} for n in range(runs)]
    assert [_fields(r) for r in records] == _reference_annotate(db, "p", ["m"])


# ---------------------------------------------------------------------------
# What the two statements cost
# ---------------------------------------------------------------------------

class RecordingStore:
    """A ``RelationalStore`` that keeps every read statement and its row count."""

    def __init__(self, inner):
        self.inner = inner
        self.reads: list[tuple[str, tuple, int]] = []

    def query(self, sql, params=()):
        rows = self.inner.query(sql, params)
        self.reads.append((sql, tuple(params), len(rows)))
        return rows

    def query_one(self, sql, params=()):
        rows = self.query(sql, params)
        return rows[0] if rows else None

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _seed_runs(db, runs, steps, names=("m0", "m1", "m2", "m3"), first_run=0):
    for n in range(first_run, first_run + runs):
        tstamp = f"t{n:03d}"
        LoopRepository(db).add_many(
            [LoopRecord("p", tstamp, "train.py", s + 1, 0, "step", s, str(s)) for s in range(steps)]
        )
        LogRepository(db).add_many(
            [LogRecord.create("p", tstamp, "train.py", s + 1, name, s) for s in range(steps) for name in names]
        )


ROWID_RANGE = "SEARCH logs USING INTEGER PRIMARY KEY (rowid>? AND rowid<?)"


class TestStatementCost:
    def test_the_scan_and_the_loop_fetch_are_index_searches(self, db):
        """The log scan is answered from ``idx_logs_pushdown`` and the loop
        fetch seeks ``idx_loops_ancestry`` run by run: no table scan of either."""
        _seed_runs(db, runs=3, steps=4)
        store = RecordingStore(db)
        # A delta read (min_seq) walks its seq range, filtered by name; a
        # time range over every name is what idx_logs_tstamp is for.
        pushdown = r"COVERING INDEX idx_logs_pushdown \(projid=\? AND value_name=\?"
        shapes = [
            (dict(value_names=["m0", "m1"]), pushdown),
            (dict(value_names=["m0", "m3"], max_seq=40), pushdown),
            (dict(value_names=["m0"], min_seq=4, max_seq=40), re.escape(ROWID_RANGE)),
            (dict(value_names=["m0", "m3"], run_keys=[("t001", "train.py")]), pushdown),
            (dict(value_names=["m1"], tstamp_range=("t001", None)), pushdown),
            (dict(value_names=None, tstamp_range=("t001", None)), r"idx_logs_tstamp \(projid=\?"),
        ]
        for kwargs, wanted in shapes:
            del store.reads[:]
            names = kwargs.pop("value_names")
            assert long_format_records(store, "p", names, **kwargs)
            (log_sql, log_params, _), (loop_sql, loop_params, _) = store.reads
            log_plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + log_sql, log_params)]
            loop_plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + loop_sql, loop_params)]
            assert re.search(wanted, log_plan[0]), log_plan
            assert any("COVERING INDEX idx_loops_ancestry (projid=? AND tstamp=? AND filename=?)" in step
                       for step in loop_plan), loop_plan
            for step in log_plan + loop_plan:
                assert not re.match(r"SCAN (logs|loops|l)\b", step), step

    def test_an_incremental_refresh_reads_the_delta_not_the_project(self, db):
        """4,000 rows cached, 16 appended: the refresh's statements return the
        16 log rows and the 4 loop rows of the run they landed in."""
        names = ["m0", "m1", "m2", "m3"]
        _seed_runs(db, runs=10, steps=100)
        cache = PivotViewCache()
        assert len(cache.dataframe(db, "p", names)) == 1000
        _seed_runs(db, runs=1, steps=4, first_run=10)  # 16 log rows, 4 loop rows
        store = RecordingStore(db)
        frame = cache.dataframe(store, "p", names)
        assert len(frame) == 1004
        assert cache.stats.incremental_refreshes == 1
        assert cache.stats.fetched_rows == 4000 + 16
        assert sum(count for _sql, _params, count in store.reads) <= 2 + 1 + 16 + 4
        assert len(store.reads) <= 6  # two watermarks, touched runs, scan, loop fetch

    def test_the_delta_read_is_a_seq_range_not_a_walk_of_each_names_history(self, db):
        """The refresh's multi-name log scan seeks the rowid range of the delta;
        a walk of ``idx_logs_pushdown`` per name would read every row cached."""
        names = ["m0", "m1", "m2", "m3"]
        _seed_runs(db, runs=10, steps=100)
        cache = PivotViewCache()
        cache.dataframe(db, "p", names)
        _seed_runs(db, runs=1, steps=4, first_run=10)
        store = RecordingStore(db)
        cache.dataframe(store, "p", names)
        ((delta_sql, params, rows),) = [read for read in store.reads if "seq > ?" in read[0]]
        assert rows == 16
        plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + delta_sql, params)]
        assert plan[0] == ROWID_RANGE, plan
        # So is the probe for runs whose loop rows moved.
        ((touched_sql, params, _),) = [read for read in store.reads if "FROM loops WHERE" in read[0]]
        plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + touched_sql, params)]
        assert plan[0] == "SEARCH loops USING INTEGER PRIMARY KEY (rowid>?)", plan
        # A cold build's full-name scan keeps its covering index.
        del store.reads[:]
        PivotViewCache().dataframe(store, "p", names)
        ((full_sql, params, _),) = [read for read in store.reads if "FROM logs WHERE" in read[0]]
        plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + full_sql, params)]
        assert "COVERING INDEX idx_logs_pushdown (projid=? AND value_name=?)" in plan[0], plan

    def test_runs_of_seeks_each_epoch_by_tstamp(self, db):
        """Each epoch probes the loop key, then its own log rows by
        ``(projid, tstamp)`` — never the project's whole pushdown range."""
        _seed_runs(db, runs=3, steps=4)
        LogRepository(db).add(LogRecord.create("p", "t003", "eval.py", 0, "acc", 1))
        for n in range(4):
            Ts2VidRepository(db).add(Ts2VidRecord("p", f"t{n:03d}", f"t{n:03d}", f"v{n}", None))
        store = RecordingStore(db)
        assert Ts2VidRepository(store).runs_of("p", "train.py") == [
            ("v0", "t000"), ("v1", "t001"), ("v2", "t002")
        ]
        assert Ts2VidRepository(store).runs_of("p", "eval.py", ["v3", "v1"]) == [("v3", "t003")]
        for sql, params, _ in store.reads:
            plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + sql, params)]
            loop_seek = plan.index(
                "SEARCH loops USING COVERING INDEX sqlite_autoindex_loops_1"
                " (projid=? AND tstamp=? AND filename=?)"
            )
            log_seek = plan.index("SEARCH logs USING INDEX idx_logs_tstamp (projid=? AND tstamp=?)")
            assert loop_seek < log_seek, plan
            assert not any("idx_logs_pushdown" in step for step in plan), plan

    def test_a_replays_landing_read_seeks_its_names_in_its_run(self, db):
        """``LogRepository.of_run`` — what a landing-set replay reads of its
        recorded run — is one covering seek per name, not a walk of the run."""
        _seed_runs(db, runs=3, steps=4)
        store = RecordingStore(db)
        records = LogRepository(store).of_run("p", "t001", ["m2", "m0"])
        assert [(r.tstamp, r.value_name) for r in records] == [("t001", "m0"), ("t001", "m2")] * 4
        ((sql, params, rows),) = store.reads
        assert rows == 8
        plan = [row[3] for row in db.query("EXPLAIN QUERY PLAN " + sql, params)]
        assert plan[0] == (
            "SEARCH logs USING COVERING INDEX idx_logs_pushdown"
            " (projid=? AND value_name=? AND tstamp=?)"
        ), plan

    def test_every_log_and_loop_index_is_in_a_pinned_plan(self, db):
        """An index no statement seeks costs every append: each one on ``logs``
        and ``loops`` must show up in a plan this class pins."""
        _seed_runs(db, runs=3, steps=4)
        Ts2VidRepository(db).add(Ts2VidRecord("p", "t000", "t002", "v0", None))
        store = RecordingStore(db)
        long_format_records(store, "p", ["m0", "m1"])
        long_format_records(store, "p", None, tstamp_range=("t001", None))
        Ts2VidRepository(store).runs_of("p", "train.py")
        sought = {
            index
            for sql, params, _ in store.reads
            for row in db.query("EXPLAIN QUERY PLAN " + sql, params)
            for index in re.findall(r"INDEX (\w+)", row[3])
        }
        indexes = {row[1] for table in ("logs", "loops") for row in db.query(f"PRAGMA index_list({table})")}
        assert indexes == {
            "idx_logs_pushdown", "idx_logs_tstamp", "idx_loops_ancestry", "sqlite_autoindex_loops_1"
        }
        assert indexes <= sought, indexes - sought


class TestWatermarks:
    def test_watermarks_start_at_zero_and_grow(self, db):
        from repro.relational.queries import (
            log_watermark,
            loop_watermark,
            runs_touched_since,
        )
        from repro.relational.repositories import LogRepository, LoopRepository

        assert log_watermark(db, "p") == 0
        assert loop_watermark(db, "p") == 0
        LogRepository(db).add(LogRecord.create("p", "t1", "train.py", 0, "m", 1.0))
        LoopRepository(db).add(LoopRecord("p", "t1", "train.py", 1, 0, "epoch", 0, "0"))
        assert log_watermark(db, "p") == 1
        first_loop = loop_watermark(db, "p")
        assert first_loop >= 1
        assert runs_touched_since(db, "p", 0) == {("t1", "train.py")}
        assert runs_touched_since(db, "p", first_loop) == set()

    def test_replace_advances_the_loop_watermark(self, db):
        """INSERT OR REPLACE rewrites under a fresh rowid — the cache's signal."""
        from repro.relational.queries import loop_watermark, runs_touched_since
        from repro.relational.repositories import LoopRepository

        loops = LoopRepository(db)
        loops.add(LoopRecord("p", "t1", "train.py", 1, 0, "epoch", 0, "before"))
        watermark = loop_watermark(db, "p")
        loops.add(LoopRecord("p", "t1", "train.py", 1, 0, "epoch", 0, "after"))
        assert loop_watermark(db, "p") > watermark
        assert runs_touched_since(db, "p", watermark) == {("t1", "train.py")}


class TestLatest:
    def test_latest_keeps_only_max_tstamp_rows(self):
        frame = DataFrame({"tstamp": ["t1", "t2", "t2"], "v": [1, 2, 3]})
        result = latest(frame)
        assert len(result) == 2
        assert set(result["v"].to_list()) == {2, 3}

    def test_latest_on_empty_or_missing_column(self):
        assert latest(DataFrame()).empty
        frame = DataFrame({"v": [1]})
        assert latest(frame).equals(frame)

    def test_latest_on_empty_frame_with_column_present(self):
        frame = DataFrame({"tstamp": [], "v": []})
        assert latest(frame).empty

    def test_latest_when_all_tstamps_are_null(self):
        frame = DataFrame({"tstamp": [None, None], "v": [1, 2]})
        result = latest(frame)
        assert result.equals(frame)  # nothing to rank by; frame passes through

    def test_latest_on_alternate_column(self):
        frame = DataFrame({"epoch": [1, 3, 3], "v": [1, 2, 3]})
        result = latest(frame, column="epoch")
        assert set(result["v"].to_list()) == {2, 3}


class TestGitView:
    def test_git_view_lists_files_per_commit(self, tmp_path):
        repo = Repository(tmp_path / "objects", tmp_path)
        (tmp_path / "a.py").write_text("print('v1')\n")
        repo.track("a.py")
        first = repo.commit("v1")
        (tmp_path / "a.py").write_text("print('v2')\n")
        second = repo.commit("v2")
        frame = git_view(repo)
        assert set(frame.columns) == {"vid", "filename", "parent_vid", "contents"}
        assert len(frame) == 2
        rows = {r["vid"]: r for r in frame.to_records()}
        assert rows[first.vid]["parent_vid"] is None
        assert rows[second.vid]["parent_vid"] == first.vid
        assert "v2" in rows[second.vid]["contents"]
