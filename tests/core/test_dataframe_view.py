"""Tests for the pivoted flor.dataframe construction."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataframe_view import RUN_COLUMNS, _new_row, build_dataframe, pivot_run
from repro.relational.queries import AnnotatedLog, LoopPosition


class TestSingleRunPivot:
    def test_epoch_level_metrics_one_row_per_epoch(self, session):
        for epoch in session.loop("epoch", range(3)):
            session.log("acc", 0.5 + epoch * 0.1)
            session.log("recall", 0.4 + epoch * 0.1)
        frame = session.dataframe("acc", "recall")
        assert len(frame) == 3
        assert frame.columns[:3] == ["projid", "tstamp", "filename"]
        assert frame["acc"].to_list() == pytest.approx([0.5, 0.6, 0.7])
        assert frame["recall"].to_list() == pytest.approx([0.4, 0.5, 0.6])

    def test_mixed_depth_broadcasts_shallow_values_down(self, session):
        for epoch in session.loop("epoch", range(2)):
            for step in session.loop("step", range(2)):
                session.log("loss", epoch * 10 + step)
            session.log("acc", 0.9 + epoch * 0.01)
        frame = session.dataframe("loss", "acc")
        assert len(frame) == 4  # one row per step
        by_epoch = {}
        for row in frame.to_records():
            by_epoch.setdefault(row["epoch"], set()).add(row["acc"])
        assert by_epoch[0] == {0.9}
        assert by_epoch[1] == {0.91}

    def test_broadcast_is_last_write_wins(self, session):
        """Re-logging a shallow value overwrites its earlier broadcast.

        Regression for the dead ``setdefault``-then-overwrite in the
        broadcast loop: when the same name is logged twice at the same
        shallow position, append order decides — the later value must land
        on every deeper row, exactly as it would for deep-level re-logs.
        """
        for epoch in session.loop("epoch", range(2)):
            for step in session.loop("step", range(2)):
                session.log("loss", epoch * 10 + step)
            session.log("acc", 0.1)  # provisional value...
            session.log("acc", 0.9 + epoch)  # ...corrected before the epoch ends
        frame = session.dataframe("loss", "acc")
        assert len(frame) == 4
        by_epoch = {}
        for row in frame.to_records():
            by_epoch.setdefault(row["epoch"], set()).add(row["acc"])
        assert by_epoch[0] == {0.9}
        assert by_epoch[1] == {1.9}

    def test_dimension_value_columns_present(self, session):
        for doc in session.loop("document", ["a.pdf", "b.pdf"]):
            session.log("n_pages", len(doc))
        frame = session.dataframe("n_pages")
        assert "document" in frame.columns
        assert "document_value" in frame.columns
        assert frame["document_value"].to_list() == ["a.pdf", "b.pdf"]

    def test_top_level_log_single_row(self, session):
        session.log("seed", 42)
        frame = session.dataframe("seed")
        assert len(frame) == 1
        assert frame.row(0)["seed"] == 42

    def test_empty_request_and_unknown_name(self, session):
        assert session.dataframe().empty
        frame = session.dataframe("never_logged")
        assert frame.empty
        assert "never_logged" in frame.columns


class TestMultiRunPivot:
    def test_rows_from_all_versions_included(self, session):
        for run in range(3):
            for epoch in session.loop("epoch", range(2)):
                session.log("acc", run + epoch * 0.1)
            session.commit(f"run {run}")
        frame = session.dataframe("acc")
        assert len(frame) == 6
        assert frame["tstamp"].nunique() == 3

    def test_latest_run_selectable_via_tstamp(self, session):
        from repro.relational.queries import latest

        for run in range(2):
            for _epoch in session.loop("epoch", range(2)):
                session.log("acc", run)
            session.commit()
        newest = latest(session.dataframe("acc"))
        assert set(newest["acc"].to_list()) == {1}


class TestCrossFileJoin:
    """The Figure 6 scenario: featurization and feedback live in different files."""

    @pytest.fixture()
    def populated(self, session):
        # featurize.py logs first_page per (document, page)
        for doc in session.loop("document", ["a.pdf", "b.pdf"], filename="featurize.py"):
            for page in session.loop("page", range(3), filename="featurize.py"):
                session.log("first_page", 1 if page == 0 else 0, filename="featurize.py")
        session.commit("featurize")
        # app.py records expert colors for a.pdf only
        with session.iteration("document", None, "a.pdf", filename="app.py"):
            for page in session.loop("page", range(3), filename="app.py"):
                session.log("page_color", page, filename="app.py")
        session.commit("feedback")
        return session

    def test_left_join_keeps_every_featurized_page(self, populated):
        frame = populated.dataframe("first_page", "page_color")
        assert len(frame) == 6  # 2 documents × 3 pages

    def test_feedback_values_align_on_document_and_page(self, populated):
        frame = populated.dataframe("first_page", "page_color")
        a_rows = frame[frame.document_value == "a.pdf"].sort_values("page")
        assert a_rows["page_color"].to_list() == [0, 1, 2]

    def test_unlabelled_document_has_missing_colors(self, populated):
        frame = populated.dataframe("first_page", "page_color")
        b_rows = frame[frame.document_value == "b.pdf"]
        assert b_rows.page_color.isna().all()

    def test_figure6_fallback_colors_from_first_page(self, populated):
        frame = populated.dataframe("first_page", "page_color")
        b_rows = frame[frame.document_value == "b.pdf"].sort_values("page")
        color = b_rows["first_page"].astype(int).cumsum()
        b_rows["page_color"] = (color - 1).to_list()
        assert b_rows["page_color"].to_list() == [0, 0, 0]

    def test_newest_feedback_wins(self, populated):
        # A second round of expert feedback overrides the first.
        with populated.iteration("document", None, "a.pdf", filename="app.py"):
            for page in populated.loop("page", range(3), filename="app.py"):
                populated.log("page_color", 9, filename="app.py")
        populated.commit("second feedback")
        frame = populated.dataframe("first_page", "page_color")
        a_rows = frame[frame.document_value == "a.pdf"]
        assert set(a_rows["page_color"].to_list()) == {9}


class TestBuildDataframeDirect:
    def test_requested_name_order_preserved(self, session):
        for _ in session.loop("epoch", range(1)):
            session.log("b_metric", 1)
            session.log("a_metric", 2)
        session.flush()
        frame = build_dataframe(session.db, session.projid, ["a_metric", "b_metric"])
        assert frame.columns[-2:] == ["a_metric", "b_metric"]


# ---------------------------------------------------------------------------
# pivot_run against the loop it replaced
# ---------------------------------------------------------------------------

def _reference_pivot_run(records, group_names):
    """The quadratic broadcast ``pivot_run`` had: every shallow record scans
    every row.  Kept as the oracle; returns ``(rows, dim_order)``."""
    run_records = [r for r in records if r.value_name in group_names]
    if not run_records:
        return [], []
    dim_order = []
    for record in run_records:
        for dim in record.dimensions:
            if dim not in dim_order:
                dim_order.append(dim)
    max_depth = max(r.depth for r in run_records)
    rows, row_order = {}, []
    for record in (r for r in run_records if r.depth == max_depth):
        key = record.dimension_key()
        if key not in rows:
            rows[key] = _new_row(record)
            row_order.append(key)
        rows[key][record.value_name] = record.value
    for record in (r for r in run_records if r.depth < max_depth):
        prefix = record.dimension_key()
        matched = False
        for key in row_order:
            if key[: len(prefix)] == prefix:
                rows[key][record.value_name] = record.value
                matched = True
        if not matched:
            if prefix not in rows:
                rows[prefix] = _new_row(record)
                row_order.append(prefix)
            rows[prefix][record.value_name] = record.value
    return [rows[key] for key in row_order], dim_order


def _record(path, name, value, seq=0):
    key = tuple(path)
    values = tuple((f"{loop}_value", str(i)) for loop, i in key)
    return AnnotatedLog("p", "t1", "train.py", 0, name, value, LoopPosition(key, values, len(key)), seq)


#: Loop positions up to three deep over two loop names per level, so prefixes
#: match, miss, and shallow records land both on deeper rows and on none.
_paths = st.lists(
    st.tuples(st.sampled_from(["epoch", "val"]), st.integers(0, 2)), max_size=3
).map(lambda pairs: [(f"{loop}{depth}", i) for depth, (loop, i) in enumerate(pairs)])


class TestPivotRunEqualsTheQuadraticLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        logged=st.lists(st.tuples(_paths, st.sampled_from(["a", "b", "c", "other"])), max_size=24),
        group=st.sets(st.sampled_from(["a", "b", "c"]), min_size=1),
    )
    def test_rows_order_and_dimensions_agree(self, logged, group):
        records = [_record(path, name, seq, seq) for seq, (path, name) in enumerate(logged)]
        pivot = pivot_run(("p", "t1", "train.py"), records, group)
        rows, dim_order = _reference_pivot_run(records, group)
        assert pivot.dim_order == dim_order
        assert pivot.length == len(rows)
        dims = [c for dim in dim_order for c in (dim, f"{dim}_value")]
        columns = RUN_COLUMNS + dims + sorted(group)
        if rows:  # the run's columns, each holding every row, nulls where a row has no cell
            assert list(pivot.columns) == columns
            assert pivot.columns == {c: [row.get(c) for row in rows] for c in columns}
        assert pivot.records(columns) == [{c: row.get(c) for c in columns} for row in rows]

    def test_a_per_epoch_name_costs_its_own_rows_not_every_row(self):
        """400 epochs x 50 steps with one per-epoch metric: the broadcast is a
        bucket lookup per epoch, not 400 passes over 20,000 rows."""
        epochs, steps = 400, 50
        deep = [
            _record([("epoch", e), ("step", s)], "loss", e * steps + s)
            for e in range(epochs)
            for s in range(steps)
        ]
        shallow = [_record([("epoch", e)], "acc", float(e)) for e in range(epochs)]

        def best_of_three(records, names):
            timings = []
            for _ in range(3):
                started = time.perf_counter()
                pivot = pivot_run(("p", "t1", "train.py"), records, names)
                timings.append(time.perf_counter() - started)
            return pivot, min(timings)

        _plain, deep_only = best_of_three(deep, {"loss"})
        pivot, with_broadcast = best_of_three(deep + shallow, {"loss", "acc"})
        assert pivot.length == epochs * steps
        assert pivot.column("acc") == [float(e) for e in pivot.column("epoch")]
        # The quadratic loop spent ~40x the deep-only pivot here.
        assert with_broadcast < 5 * deep_only
