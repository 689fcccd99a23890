"""Tests for the content-addressed object store."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ObjectNotFoundError
from repro.versioning.objects import ObjectStore, hash_bytes


@pytest.fixture()
def store(tmp_path):
    return ObjectStore(tmp_path / "objects")


class TestHashing:
    def test_hash_is_deterministic(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")

    def test_hash_differs_for_different_content(self):
        assert hash_bytes(b"abc") != hash_bytes(b"abd")


class TestStore:
    def test_put_get_roundtrip(self, store):
        object_id = store.put(b"hello world")
        assert store.get(object_id) == b"hello world"

    def test_put_is_idempotent(self, store):
        first = store.put(b"same")
        second = store.put(b"same")
        assert first == second
        assert len(list(store.root.glob("??/*"))) == 1

    def test_text_helpers(self, store):
        object_id = store.put("unicode ✓ content".encode("utf-8"))
        assert store.get_text(object_id) == "unicode ✓ content"

    def test_missing_object_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get("f" * 64)

    def test_malformed_id_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get("not-a-hash!")

    def test_fanout_layout_on_disk(self, store, tmp_path):
        object_id = store.put(b"content")
        expected = tmp_path / "objects" / object_id[:2] / object_id[2:]
        assert expected.exists()


@given(data=st.binary(max_size=512))
def test_property_roundtrip_arbitrary_bytes(tmp_path_factory, data):
    store = ObjectStore(tmp_path_factory.mktemp("objs"))
    object_id = store.put(data)
    assert store.get(object_id) == data
    assert object_id == hash_bytes(data)
