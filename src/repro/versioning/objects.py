"""Content-addressed blob storage.

Objects are addressed by the SHA-256 of their contents and stored under
``<objects_dir>/<first two hex chars>/<rest>``, the same fan-out layout git
uses.  Writing is idempotent: storing identical contents twice costs one hash
computation and no extra disk space.

This is the reference implementation of the
:class:`repro.storage.protocols.BlobStore` protocol; the in-memory backend
lives in :mod:`repro.storage`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from uuid import uuid4

from ..errors import ObjectNotFoundError

_HEX = set("0123456789abcdef")


def hash_bytes(data: bytes) -> str:
    """Stable content address (SHA-256 hex digest) for a byte string."""
    return hashlib.sha256(data).hexdigest()


class ObjectStore:
    """A write-once, content-addressed object store rooted at a directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()
        self._unpack_legacy_archive()

    def _unpack_legacy_archive(self) -> None:
        """Move blobs an older release packed into ``archive/`` back home.

        Releases with cold tiering kept some blobs only in append-only
        ``archive/pack-NNNN.bin`` files, indexed by ``archive/index.json`` as
        ``id -> {pack, offset, length}``.  Every indexed blob is read, checked
        against its id and ``put`` before the index, then the directory, is
        removed, so a damaged pack raises and leaves the archive as it was.
        A file vanishing because a concurrent unpacker finished first is fine.
        """
        archive = self.root / "archive"
        index_path = archive / "index.json"
        try:
            index = json.loads(index_path.read_text("utf-8"))
            for object_id, entry in index.items():
                pack, offset, length = entry["pack"], int(entry["offset"]), int(entry["length"])
                with open(archive / pack, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read(length)
                if hash_bytes(data) != object_id:  # a short read fails this too
                    raise ObjectNotFoundError(f"archived object {object_id} is damaged in {pack}")
                self.put(data)
            index_path.unlink()
            shutil.rmtree(archive)
        except FileNotFoundError:
            if index_path.exists():
                raise

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` debris left by writers that crashed mid-put.

        A live writer's tmp may be swept too (its name is unique, so nothing
        else is harmed): :meth:`put` writes it again when its ``replace``
        finds it gone, and a concurrent ``replace`` can at worst make our
        ``unlink`` miss — which we tolerate.
        """
        for tmp in self.root.glob("??/*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass

    def _path_for(self, object_id: str) -> Path:
        if len(object_id) < 3 or not all(c in _HEX for c in object_id):
            raise ObjectNotFoundError(f"malformed object id: {object_id!r}")
        return self.root / object_id[:2] / object_id[2:]

    def put(self, data: bytes) -> str:
        """Store ``data`` and return its object id (idempotent)."""
        object_id = hash_bytes(data)
        path = self._path_for(object_id)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            # Unique per-writer tmp name: concurrent puts of the same object
            # must not share a staging path, or one writer's replace() can
            # consume (or collide with) the other's half-written file.  The
            # final replace() is atomic, and both writers hold identical
            # bytes, so last-one-wins is correct.
            for attempt in range(3):
                tmp = path.parent / f"{path.name}.{uuid4().hex}.tmp"
                try:
                    tmp.write_bytes(data)
                    tmp.replace(path)
                    break
                except FileNotFoundError:
                    # Another store's open swept the tmp as a crashed
                    # writer's debris before the replace: write it again.
                    if attempt == 2:
                        raise
                except OSError:
                    try:
                        tmp.unlink()
                    except OSError:
                        pass
                    raise
        return object_id

    def get(self, object_id: str) -> bytes:
        try:
            return self._path_for(object_id).read_bytes()
        except FileNotFoundError:
            raise ObjectNotFoundError(f"object {object_id} not found in {self.root}") from None

    def get_text(self, object_id: str) -> str:
        return self.get(object_id).decode("utf-8")
