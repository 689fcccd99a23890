"""Tests for typed records and value encoding/decoding."""

from __future__ import annotations

import enum
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.relational.records import (
    VALUE_TYPE_BOOL,
    VALUE_TYPE_FLOAT,
    VALUE_TYPE_INT,
    VALUE_TYPE_JSON,
    VALUE_TYPE_NONE,
    VALUE_TYPE_STR,
    BuildDepRecord,
    LogRecord,
    LoopRecord,
    decode_value,
    encode_value,
)


class Level(enum.IntEnum):
    HIGH = 2


class Tag(str):
    def __str__(self) -> str:
        return f"Tag({self!r})"


class Ratio(float):
    def __repr__(self) -> str:
        return "Ratio(...)"


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "value, expected_type",
        [
            ("hello", VALUE_TYPE_STR),
            (42, VALUE_TYPE_INT),
            (3.5, VALUE_TYPE_FLOAT),
            (True, VALUE_TYPE_BOOL),
            (None, VALUE_TYPE_NONE),
            ([1, 2, 3], VALUE_TYPE_JSON),
            ({"a": 1}, VALUE_TYPE_JSON),
        ],
    )
    def test_type_tags(self, value, expected_type):
        _text, value_type = encode_value(value)
        assert value_type == expected_type

    @pytest.mark.parametrize(
        "value",
        ["text", "", 0, -17, 3.14159, True, False, None, [1, "two", 3.0], {"k": [1, 2]}],
    )
    def test_roundtrip(self, value):
        text, value_type = encode_value(value)
        assert decode_value(text, value_type) == value

    def test_bool_not_confused_with_int(self):
        text, value_type = encode_value(True)
        assert decode_value(text, value_type) is True

    def test_unserializable_object_falls_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        text, value_type = encode_value(Weird())
        assert value_type == VALUE_TYPE_JSON or value_type == VALUE_TYPE_STR
        assert "weird" in str(decode_value(text, value_type)) or "Weird" in str(decode_value(text, value_type))

    def test_malformed_json_decodes_to_raw_text(self):
        assert decode_value("{not json", VALUE_TYPE_JSON) == "{not json"

    @pytest.mark.parametrize(
        "value, plain",
        [
            (np.float64(0.1), 0.1),
            (np.float32(2.5), 2.5),
            (np.int64(-7), -7),
            (np.uint8(255), 255),
            (np.bool_(False), False),
            (np.str_("näive"), "näive"),
            (Level.HIGH, 2),
            (Tag("x"), "x"),
            (Ratio(0.5), 0.5),
        ],
        ids=["float64", "float32", "int64", "uint8", "bool_", "str_", "IntEnum", "str-sub", "float-sub"],
    )
    def test_numpy_scalars_and_subclasses_encode_as_their_plain_value(self, value, plain):
        assert encode_value(value) == encode_value(plain)

    def test_a_numpy_scalar_without_a_plain_value_still_encodes(self):
        """``np.longdouble.item()`` is itself: no plain value, no recursion."""
        text, value_type = encode_value(np.longdouble(1.5))
        assert decode_value(text, value_type) == "1.5"


class TestLogRecord:
    def test_create_encodes_value(self):
        record = LogRecord.create("p", "t", "f.py", 3, "acc", 0.75)
        assert record.value_type == VALUE_TYPE_FLOAT
        assert record.decoded() == 0.75

    def test_records_are_frozen(self):
        record = LogRecord.create("p", "t", "f.py", 3, "acc", 1)
        with pytest.raises(AttributeError):
            record.value = "other"

    def test_as_row_matches_insert_column_order(self):
        record = LogRecord.create("p", "t", "f.py", 3, "acc", 0.75)
        assert record.as_row() == ("p", "t", "f.py", 3, "acc", "0.75", VALUE_TYPE_FLOAT)

    def test_loop_as_row_matches_insert_column_order(self):
        record = LoopRecord("p", "t", "f.py", 4, 0, "epoch", 2, "2")
        assert record.as_row() == ("p", "t", "f.py", 4, 0, "epoch", 2, "2")


class TestBuildDepRecord:
    def test_json_roundtrip_through_row(self):
        record = BuildDepRecord(vid="v1", target="train", deps=("featurize",), cmds=("python train.py",), cached=True)
        row = (record.vid, record.target, record.deps_json(), record.cmds_json(), int(record.cached))
        restored = BuildDepRecord.from_row(row)
        assert restored == record

    def test_deps_json_is_valid_json(self):
        record = BuildDepRecord(vid="v", target="t", deps=("a", "b"))
        assert json.loads(record.deps_json()) == ["a", "b"]


# ---------------------------------------------------------------- properties

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=60),
)


@given(scalars)
def test_property_scalar_roundtrip(value):
    text, value_type = encode_value(value)
    decoded = decode_value(text, value_type)
    if isinstance(value, float):
        assert decoded == pytest.approx(value)
    else:
        assert decoded == value


@given(st.lists(st.integers(min_value=-100, max_value=100), max_size=10))
def test_property_list_roundtrip(value):
    text, value_type = encode_value(value)
    assert decode_value(text, value_type) == value
