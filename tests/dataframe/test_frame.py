"""Unit and property tests for the DataFrame type."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.dataframe import Column, DataFrame
from repro.errors import ColumnNotFoundError, DataFrameError, LengthMismatchError


@pytest.fixture()
def frame():
    return DataFrame(
        {
            "run": ["a", "a", "b", "b"],
            "epoch": [0, 1, 0, 1],
            "acc": [0.5, 0.7, 0.6, None],
        }
    )


class TestConstructionAndShape:
    def test_shape_and_columns(self, frame):
        assert frame.shape == (4, 3)
        assert frame.columns == ["run", "epoch", "acc"]
        assert not frame.empty

    def test_empty_frame(self):
        frame = DataFrame()
        assert frame.empty
        assert frame.shape == (0, 0)

    def test_column_length_mismatch_raises(self):
        frame = DataFrame({"a": [1, 2]})
        with pytest.raises(LengthMismatchError):
            frame["b"] = [1, 2, 3]

    def test_scalar_assignment_broadcasts(self):
        frame = DataFrame({"a": [1, 2, 3]})
        frame["b"] = 7
        assert frame["b"].to_list() == [7, 7, 7]

    def test_setitem_accepts_column(self):
        frame = DataFrame({"a": [1, 2]})
        frame["b"] = Column("ignored", [3, 4])
        assert frame["b"].to_list() == [3, 4]


class TestAccess:
    def test_getitem_column(self, frame):
        assert frame["epoch"].to_list() == [0, 1, 0, 1]

    def test_attribute_access(self, frame):
        assert frame.run.to_list() == ["a", "a", "b", "b"]

    def test_missing_column_raises_with_available_names(self, frame):
        with pytest.raises(ColumnNotFoundError) as excinfo:
            frame["missing"]
        assert "acc" in str(excinfo.value)

    def test_missing_attribute_raises_attribute_error(self, frame):
        with pytest.raises(AttributeError):
            frame.missing_column

    def test_row_access_and_negative_index(self, frame):
        assert frame.row(0) == {"run": "a", "epoch": 0, "acc": 0.5}
        assert frame.row(-1)["run"] == "b"

    def test_row_out_of_range(self, frame):
        with pytest.raises(DataFrameError):
            frame.row(10)

    def test_slicing_returns_subframe(self, frame):
        assert len(frame[1:3]) == 2

    def test_unsupported_indexer_raises(self, frame):
        with pytest.raises(DataFrameError):
            frame[3.14]


class TestFiltering:
    def test_boolean_mask_from_column_comparison(self, frame):
        subset = frame[frame.run == "a"]
        assert len(subset) == 2
        assert subset["epoch"].to_list() == [0, 1]

    def test_mask_length_mismatch_raises(self, frame):
        with pytest.raises(LengthMismatchError):
            frame[Column("m", [True])]

    def test_filter_with_predicate(self, frame):
        subset = frame.filter(lambda row: row["epoch"] == 1)
        assert len(subset) == 2

    def test_dropna_subset(self, frame):
        assert len(frame.dropna(subset=["acc"])) == 3

    def test_dropna_unknown_column_raises(self, frame):
        with pytest.raises(ColumnNotFoundError):
            frame.dropna(subset=["nope"])

    def test_fillna(self, frame):
        filled = frame.fillna(0.0)
        assert filled["acc"].to_list()[-1] == 0.0

    def test_drop_duplicates(self):
        frame = DataFrame({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(frame.drop_duplicates()) == 2

    def test_drop_duplicates_subset_keeps_first(self):
        frame = DataFrame({"a": [1, 1, 2], "b": ["x", "y", "z"]})
        deduped = frame.drop_duplicates(subset=["a"])
        assert deduped["b"].to_list() == ["x", "z"]


class TestProjection:
    def test_select_and_column_list_indexing(self, frame):
        assert frame.select(["run", "acc"]).columns == ["run", "acc"]
        assert frame[["run"]].columns == ["run"]

    def test_drop(self, frame):
        assert frame.drop("acc").columns == ["run", "epoch"]
        assert frame.drop(["run", "epoch"]).columns == ["acc"]

    def test_rename(self, frame):
        assert "accuracy" in frame.rename({"acc": "accuracy"}).columns

    def test_assign_with_callable(self, frame):
        out = frame.assign(double=lambda f: (f["epoch"] * 2).to_list())
        assert out["double"].to_list() == [0, 2, 0, 2]
        assert "double" not in frame.columns  # original untouched

    def test_copy_is_independent(self, frame):
        copy = frame.copy()
        copy["new"] = 1
        assert "new" not in frame.columns

    def test_head_and_tail(self, frame):
        assert len(frame.head(2)) == 2
        assert frame.tail(1).row(0)["run"] == "b"


class TestSorting:
    def test_sort_values_ascending_and_descending(self):
        frame = DataFrame({"x": [3, 1, 2]})
        assert frame.sort_values("x")["x"].to_list() == [1, 2, 3]
        assert frame.sort_values("x", ascending=False)["x"].to_list() == [3, 2, 1]

    def test_sort_by_multiple_columns(self):
        frame = DataFrame({"a": [1, 0, 1], "b": [2, 9, 1]})
        ordered = frame.sort_values(["a", "b"])
        assert ordered["b"].to_list() == [9, 1, 2]

    def test_sort_places_nulls_last(self):
        frame = DataFrame({"x": [2, None, 1]})
        assert frame.sort_values("x")["x"].to_list() == [1, 2, None]

    def test_sort_unknown_column_raises(self, frame):
        with pytest.raises(ColumnNotFoundError):
            frame.sort_values("nope")


class TestGroupBy:
    def test_group_sizes(self, frame):
        sizes = frame.groupby("run").size()
        assert sizes["size"].to_list() == [2, 2]

    def test_agg_named_reductions(self, frame):
        out = frame.groupby("run").agg({"acc": "mean", "epoch": "max"})
        row_a = [r for r in out.to_records() if r["run"] == "a"][0]
        assert row_a["acc"] == pytest.approx(0.6)
        assert row_a["epoch"] == 1

    def test_agg_first_last_and_callable(self, frame):
        out = frame.groupby("run").agg({"acc": "first", "epoch": lambda col: sum(col.to_list())})
        row_b = [r for r in out.to_records() if r["run"] == "b"][0]
        assert row_b["acc"] == 0.6
        assert row_b["epoch"] == 1

    def test_agg_unknown_reduction_raises(self, frame):
        with pytest.raises(DataFrameError):
            frame.groupby("run").agg({"acc": "median?"})

    def test_groupby_multiple_keys_and_iteration(self, frame):
        grouped = frame.groupby(["run", "epoch"])
        assert len(grouped) == 4
        keys = [key for key, _sub in grouped]
        assert ("a", 0) in keys

    def test_groupby_unknown_column_raises(self, frame):
        with pytest.raises(ColumnNotFoundError):
            frame.groupby("nope")


class TestConversionAndDisplay:
    def test_to_records_roundtrip(self, frame):
        records = frame.to_records()
        assert records[1] == {"run": "a", "epoch": 1, "acc": 0.7}

    def test_to_records_is_row_by_row_in_column_order(self, frame):
        records = frame.to_records()
        assert records == [frame.row(i) for i in range(len(frame))]
        assert all(list(record) == frame.columns for record in records)
        records[0]["acc"] = -1  # fresh dicts: the frame is untouched
        assert frame.row(0)["acc"] != -1
        assert DataFrame().to_records() == []
        assert DataFrame({"x": []}).to_records() == []

    def test_to_dict_orientations(self, frame):
        assert frame.to_dict()["epoch"] == [0, 1, 0, 1]
        assert frame.to_dict("records")[0]["run"] == "a"
        with pytest.raises(DataFrameError):
            frame.to_dict("columns")

    def test_to_string_contains_headers_and_truncation_note(self):
        frame = DataFrame({"x": list(range(50))})
        rendered = frame.to_string(max_rows=5)
        assert "x" in rendered
        assert "50 rows total" in rendered

    def test_equals(self, frame):
        assert frame.equals(frame.copy())
        assert not frame.equals(frame.drop("acc"))


# ---------------------------------------------------------------- properties

row_strategy = st.fixed_dictionaries(
    {
        "a": st.integers(min_value=-100, max_value=100),
        "b": st.sampled_from(["x", "y", "z"]),
    }
)


@given(st.lists(row_strategy, max_size=40))
def test_property_mask_filter_partitions_rows(rows):
    from repro.dataframe import from_records

    frame = from_records(rows, columns=["a", "b"])
    if frame.empty:
        return
    mask = frame["b"] == "x"
    kept = frame[mask]
    dropped = frame[~mask]
    assert len(kept) + len(dropped) == len(frame)
    assert all(r["b"] == "x" for r in kept.to_records())


@given(st.lists(row_strategy, min_size=1, max_size=40))
def test_property_sort_is_stable_permutation(rows):
    from repro.dataframe import from_records

    frame = from_records(rows, columns=["a", "b"])
    ordered = frame.sort_values("a")
    assert sorted(frame["a"].to_list()) == ordered["a"].to_list()
    assert len(ordered) == len(frame)


@given(st.lists(row_strategy, max_size=40))
def test_property_groupby_sizes_sum_to_row_count(rows):
    from repro.dataframe import from_records

    frame = from_records(rows, columns=["a", "b"])
    if frame.empty:
        return
    sizes = frame.groupby("b").size()
    assert sum(sizes["size"].to_list()) == len(frame)
