"""Commits and history on top of the content-addressed object store.

A :class:`Repository` tracks a set of files under a working directory.
``commit()`` snapshots their current contents into the object store and
appends an immutable :class:`Commit` to a linear history (FlorDB only ever
commits to the tip, so branching is intentionally out of scope).

Persistence is a snapshot (``commits.json``) plus an append-only event
journal (``commits.jsonl``): each ``commit``/``track``/``untrack`` appends
one JSON line instead of rewriting the whole history, so committing stays
O(1) in history length; the journal is folded back into the snapshot once
it grows past :attr:`Repository.COMPACT_EVERY` events.  Snapshotting file
contents is likewise incremental: a ``(mtime_ns, size) → object_id`` cache
skips reading and hashing files that have not changed since the previous
commit, with a git-style "racy mtime" guard (entries whose mtime is too
close to the time they were cached are never trusted) so a same-size edit
within the filesystem's timestamp granularity is still detected.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import CommitNotFoundError, VersioningError
from .diff import diff_stats, unified_diff
from .objects import ObjectStore, hash_bytes


@dataclass(frozen=True)
class Commit:
    """An immutable snapshot of tracked files.

    ``files`` maps relative file path to the object id of its contents at
    commit time.  ``vid`` is derived from the file manifest plus parent, so
    identical content always yields the same version id (and committing with
    no changes is detected cheaply).
    """

    vid: str
    parent_vid: str | None
    tstamp: str
    message: str
    files: Mapping[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "vid": self.vid,
            "parent_vid": self.parent_vid,
            "tstamp": self.tstamp,
            "message": self.message,
            "files": dict(self.files),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Commit":
        return cls(
            vid=data["vid"],
            parent_vid=data.get("parent_vid"),
            tstamp=data["tstamp"],
            message=data.get("message", ""),
            files=dict(data.get("files", {})),
        )


def _manifest_vid(files: Mapping[str, str], parent_vid: str | None) -> str:
    payload = json.dumps({"files": dict(sorted(files.items())), "parent": parent_vid}, sort_keys=True)
    return hash_bytes(payload.encode("utf-8"))[:16]


#: Don't trust a cached hash whose file mtime is within this window of the
#: moment the cache entry was made: coarse filesystem timestamps could hide
#: a same-size rewrite inside one timestamp tick (git's "racy clean" rule).
#: 2 s covers the coarsest common granularity (FAT/exFAT; HFS+ and some NFS
#: mounts are 1 s) — files untouched for longer than that still hit the
#: cache, which is the per-epoch steady state the cache exists for.
RACY_WINDOW_NS = 2_000_000_000  # 2 s


class Repository:
    """Linear version history over a set of tracked files.

    Storage is pluggable through the :class:`repro.storage.protocols.BlobStore`
    seam: pass ``store`` to supply any backend (in-memory, fault-wrapped).  When
    ``store`` is omitted, a directory-backed :class:`ObjectStore` is built at
    ``objects_dir``.  When ``objects_dir`` is ``None`` the journal is kept
    purely in memory (no snapshot/log files) — the in-memory service backend
    relies on this to build shards with zero disk I/O.
    """

    JOURNAL_NAME = "commits.json"
    LOG_NAME = "commits.jsonl"
    #: Fold the event journal into the snapshot past this many entries.
    COMPACT_EVERY = 512

    def __init__(
        self,
        objects_dir: "Path | str | None",
        working_dir: Path | str,
        *,
        store=None,
    ):
        if store is None:
            if objects_dir is None:
                raise VersioningError("Repository needs an objects_dir or a store")
            store = ObjectStore(objects_dir)
        self.store = store
        self.working_dir = Path(working_dir)
        if objects_dir is not None:
            self._journal_path: "Path | None" = Path(objects_dir) / self.JOURNAL_NAME
            self._log_path: "Path | None" = Path(objects_dir) / self.LOG_NAME
        else:
            self._journal_path = None
            self._log_path = None
        self._commits: list[Commit] = []
        self._tracked: set[str] = set()
        self._log_entries = 0
        # rel path -> (mtime_ns, size, object_id, verified_at_ns)
        self._hash_cache: dict[str, tuple[int, int, str, int]] = {}
        self.snapshot_stats = {"hits": 0, "misses": 0}
        self._load_journal()

    # ------------------------------------------------------------- journal
    def _load_journal(self) -> None:
        if self._journal_path is None or self._log_path is None:
            return
        if self._journal_path.exists():
            try:
                data = json.loads(self._journal_path.read_text())
            except json.JSONDecodeError as exc:
                raise VersioningError(f"corrupt commit journal at {self._journal_path}") from exc
            self._commits = [Commit.from_json(entry) for entry in data.get("commits", [])]
            self._tracked = set(data.get("tracked", []))
        if self._log_path.exists():
            seen_vids = {c.vid for c in self._commits}
            for line_no, line in enumerate(self._log_path.read_text().splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise VersioningError(
                        f"corrupt commit journal at {self._log_path}:{line_no}"
                    ) from exc
                self._apply_event(event, seen_vids)
                self._log_entries += 1

    def _apply_event(self, event: Mapping, seen_vids: set[str]) -> None:
        op = event.get("op")
        if op == "commit":
            commit = Commit.from_json(event["commit"])
            # Replay must be idempotent: a crash between compaction's
            # snapshot replace and journal truncation leaves events that the
            # snapshot already folded in.  Linear, content-addressed history
            # never holds two distinct commits with one vid (an unchanged
            # manifest reuses the head instead of re-committing), so
            # skipping seen vids is safe.
            if commit.vid not in seen_vids:
                seen_vids.add(commit.vid)
                self._commits.append(commit)
        elif op == "track":
            self._tracked.update(event.get("paths", []))
        elif op == "untrack":
            self._tracked.difference_update(event.get("paths", []))
        else:
            raise VersioningError(f"unknown journal op {op!r} in {self._log_path}")

    def _append_event(self, event: dict) -> None:
        """Persist one state change in O(1): append a line, compact rarely.

        The event has already been applied to the in-memory state, so
        compaction (which serializes that state wholesale) subsumes it.
        """
        if self._log_path is None or self._journal_path is None:
            return
        if self._log_entries >= self.COMPACT_EVERY:
            self._save_snapshot()
            return
        self._log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._log_entries += 1

    def _save_snapshot(self) -> None:
        """Write the full state to ``commits.json`` and truncate the journal."""
        if self._journal_path is None or self._log_path is None:
            return
        payload = {
            "commits": [c.to_json() for c in self._commits],
            "tracked": sorted(self._tracked),
        }
        self._journal_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._journal_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(self._journal_path)
        if self._log_path.exists():
            self._log_path.unlink()
        self._log_entries = 0

    # -------------------------------------------------------------- tracking
    def track(self, *paths: str | Path) -> None:
        """Add files (relative to the working directory) to the tracked set."""
        added = []
        for path in paths:
            rel = str(Path(path))
            if rel not in self._tracked:
                self._tracked.add(rel)
                added.append(rel)
        if added:
            self._append_event({"op": "track", "paths": added})

    def untrack(self, *paths: str | Path) -> None:
        removed = []
        for path in paths:
            rel = str(Path(path))
            if rel in self._tracked:
                self._tracked.discard(rel)
                removed.append(rel)
        if removed:
            self._append_event({"op": "untrack", "paths": removed})

    @property
    def tracked(self) -> list[str]:
        return sorted(self._tracked)

    def _snapshot_files(self) -> dict[str, str]:
        """Object ids for the current contents of every tracked file.

        An unchanged file — same ``(mtime_ns, size)`` as when its hash was
        cached, and an mtime old enough to be outside the racy window —
        reuses the cached object id without being read or hashed, making a
        per-epoch commit O(changed bytes) instead of O(tracked bytes).
        """
        manifest: dict[str, str] = {}
        for rel in sorted(self._tracked):
            path = self.working_dir / rel
            try:
                stat = path.stat()
            except OSError:
                continue
            cached = self._hash_cache.get(rel)
            if (
                cached is not None
                and cached[0] == stat.st_mtime_ns
                and cached[1] == stat.st_size
                and stat.st_mtime_ns + RACY_WINDOW_NS < cached[3]
            ):
                self.snapshot_stats["hits"] += 1
                manifest[rel] = cached[2]
                continue
            object_id = self.store.put(path.read_bytes())
            self._hash_cache[rel] = (stat.st_mtime_ns, stat.st_size, object_id, time.time_ns())
            self.snapshot_stats["misses"] += 1
            manifest[rel] = object_id
        return manifest

    # --------------------------------------------------------------- commits
    def commit(self, message: str = "", tstamp: str | None = None) -> Commit:
        """Snapshot tracked files and append a commit; returns the new commit.

        Committing an unchanged manifest returns the existing head commit
        instead of creating an empty commit — several FlorDB epochs can
        therefore map to the same version id, exactly like re-running a
        pipeline without touching the code.
        """
        files = self._snapshot_files()
        parent = self._commits[-1] if self._commits else None
        parent_vid = parent.vid if parent else None
        if parent is not None and dict(parent.files) == files:
            return parent
        vid = _manifest_vid(files, parent_vid)
        commit = Commit(
            vid=vid,
            parent_vid=parent_vid,
            tstamp=tstamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
            message=message,
            files=files,
        )
        self._commits.append(commit)
        self._append_event({"op": "commit", "commit": commit.to_json()})
        return commit

    def log(self) -> list[Commit]:
        """All commits, oldest first."""
        return list(self._commits)

    def head(self) -> Commit | None:
        return self._commits[-1] if self._commits else None

    def get(self, vid: str) -> Commit:
        for commit in self._commits:
            if commit.vid == vid:
                return commit
        raise CommitNotFoundError(f"no commit with vid {vid!r}")

    def __contains__(self, vid: str) -> bool:
        return any(c.vid == vid for c in self._commits)

    def __len__(self) -> int:
        return len(self._commits)

    # ----------------------------------------------------------- file access
    def read_file(self, vid: str, filename: str) -> str:
        """Contents of ``filename`` as of version ``vid``."""
        commit = self.get(vid)
        if filename not in commit.files:
            raise VersioningError(f"file {filename!r} is not part of version {vid}")
        return self.store.get_text(commit.files[filename])

    def file_exists(self, vid: str, filename: str) -> bool:
        try:
            commit = self.get(vid)
        except CommitNotFoundError:
            return False
        return filename in commit.files

    def checkout(self, vid: str, destination: Path | str) -> list[str]:
        """Materialize every file of version ``vid`` under ``destination``."""
        commit = self.get(vid)
        destination = Path(destination)
        written: list[str] = []
        for filename, object_id in commit.files.items():
            target = destination / filename
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(self.store.get(object_id))
            written.append(filename)
        return sorted(written)

    # ------------------------------------------------------------------ diff
    def diff(self, old_vid: str, new_vid: str, filename: str) -> str:
        """Unified diff of one file between two versions."""
        old = self.read_file(old_vid, filename).splitlines() if self.file_exists(old_vid, filename) else []
        new = self.read_file(new_vid, filename).splitlines() if self.file_exists(new_vid, filename) else []
        return unified_diff(old, new, f"{filename}@{old_vid}", f"{filename}@{new_vid}")

    def change_summary(self, old_vid: str, new_vid: str) -> dict[str, dict[str, int]]:
        """Per-file added/deleted/unchanged line counts between two versions."""
        old_commit = self.get(old_vid)
        new_commit = self.get(new_vid)
        summary: dict[str, dict[str, int]] = {}
        for filename in sorted(set(old_commit.files) | set(new_commit.files)):
            old_lines = (
                self.store.get_text(old_commit.files[filename]).splitlines()
                if filename in old_commit.files
                else []
            )
            new_lines = (
                self.store.get_text(new_commit.files[filename]).splitlines()
                if filename in new_commit.files
                else []
            )
            summary[filename] = diff_stats(old_lines, new_lines)
        return summary
