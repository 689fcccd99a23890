"""ObjectStore durability: tmp-file races, crash debris, legacy archives."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ObjectNotFoundError
from repro.versioning.objects import ObjectStore, hash_bytes


class TestConcurrentPut:
    def test_racing_puts_of_same_object(self, tmp_path):
        """Concurrent puts of identical bytes must not corrupt the object.

        The old implementation staged every writer of one object at the same
        ``<object>.tmp`` path, so writer A's atomic replace could consume
        writer B's half-written file.  With unique per-writer tmp names each
        replace publishes a complete copy.
        """
        store = ObjectStore(tmp_path / "objects")
        payload = b"x" * 64_000
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def writer() -> None:
            try:
                barrier.wait()
                for _ in range(20):
                    store.put(payload)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        object_id = hash_bytes(payload)
        assert store.get(object_id) == payload
        assert hash_bytes(store.get(object_id)) == object_id
        # No staging debris left behind.
        assert list((tmp_path / "objects").glob("??/*.tmp")) == []

    def test_racing_puts_of_distinct_objects(self, tmp_path):
        store = ObjectStore(tmp_path / "objects")
        barrier = threading.Barrier(4)
        results: list[str] = []
        lock = threading.Lock()

        def writer(worker: int) -> None:
            barrier.wait()
            ids = [store.put(f"worker {worker} blob {i}".encode()) for i in range(25)]
            with lock:
                results.extend(ids)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(set(results)) == 100
        for object_id in results:
            assert hash_bytes(store.get(object_id)) == object_id


class TestStaleTmpSweep:
    def test_init_sweeps_planted_tmp_files(self, tmp_path):
        """A crashed writer's ``*.tmp`` is cleaned up on the next open."""
        root = tmp_path / "objects"
        store = ObjectStore(root)
        object_id = store.put(b"real blob")
        prefix_dir = root / object_id[:2]
        stale = prefix_dir / f"{object_id[2:]}.deadbeef.tmp"
        stale.write_bytes(b"half-written garbage")

        reopened = ObjectStore(root)
        assert not stale.exists()
        assert reopened.get(object_id) == b"real blob"

    def test_sweep_tolerates_clean_store(self, tmp_path):
        store = ObjectStore(tmp_path / "objects")
        assert list(store.root.iterdir()) == []


def _archive_by_hand(root, blobs):
    """Write the layout releases with cold tiering left: one pack, one index."""
    archive = root / "archive"
    archive.mkdir(parents=True)
    index, offset = {}, 0
    with open(archive / "pack-0000.bin", "wb") as pack:
        for data in blobs:
            pack.write(data)
            index[hash_bytes(data)] = {
                "pack": "pack-0000.bin", "offset": offset, "length": len(data)
            }
            offset += len(data)
    (archive / "index.json").write_text(json.dumps(index, indent=2))
    return list(index)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestLegacyArchiveUnpack:
    BLOBS = [b"print('epoch 0')\n", b"print('epoch 1')\n", bytes(range(256))]

    def test_intact_archive_is_unpacked_then_removed(self, tmp_path):
        root = tmp_path / "objects"
        ids = _archive_by_hand(root, self.BLOBS)
        store = ObjectStore(root)
        assert [store.get(object_id) for object_id in ids] == self.BLOBS
        assert not (root / "archive").exists()

    def test_flipped_byte_raises_and_leaves_the_archive(self, tmp_path):
        root = tmp_path / "objects"
        ids = _archive_by_hand(root, self.BLOBS)
        pack = root / "archive" / "pack-0000.bin"
        raw = bytearray(pack.read_bytes())
        raw[len(self.BLOBS[0]) + 3] ^= 0x01  # inside the second blob
        pack.write_bytes(bytes(raw))
        before = _files(root / "archive")
        with pytest.raises(ObjectNotFoundError, match=ids[1]) as failure:
            ObjectStore(root)
        assert "pack-0000.bin" in str(failure.value)
        assert _files(root / "archive") == before

    def test_truncated_pack_raises_and_leaves_the_archive(self, tmp_path):
        root = tmp_path / "objects"
        ids = _archive_by_hand(root, self.BLOBS)
        pack = root / "archive" / "pack-0000.bin"
        pack.write_bytes(pack.read_bytes()[:-10])
        before = _files(root / "archive")
        with pytest.raises(ObjectNotFoundError, match=ids[-1]):
            ObjectStore(root)
        assert _files(root / "archive") == before

    def test_id_still_hot_is_unpacked_once(self, tmp_path):
        # A crash mid-archive left the first blob in both places.
        root = tmp_path / "objects"
        hot_id = ObjectStore(root).put(self.BLOBS[0])
        ids = _archive_by_hand(root, self.BLOBS)
        store = ObjectStore(root)
        assert ids[0] == hot_id
        assert [store.get(object_id) for object_id in ids] == self.BLOBS
        assert len(list(root.glob("??/*"))) == len(self.BLOBS)
        assert not (root / "archive").exists()

    def test_second_open_is_a_no_op(self, tmp_path):
        root = tmp_path / "objects"
        ids = _archive_by_hand(root, self.BLOBS)
        ObjectStore(root)
        stamps = {p: p.stat().st_mtime_ns for p in root.glob("??/*")}
        store = ObjectStore(root)
        assert {p: p.stat().st_mtime_ns for p in root.glob("??/*")} == stamps
        assert [store.get(object_id) for object_id in ids] == self.BLOBS
        assert not (root / "archive").exists()

    def test_racing_opens_all_succeed(self, tmp_path):
        root = tmp_path / "objects"
        ids = _archive_by_hand(root, self.BLOBS + [b"x" * 512 * i for i in range(1, 30)])
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def opener() -> None:
            try:
                barrier.wait(timeout=10)
                ObjectStore(root)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=opener) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        store = ObjectStore(root)
        assert all(hash_bytes(store.get(object_id)) == object_id for object_id in ids)
        assert not (root / "archive").exists()
