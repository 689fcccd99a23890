"""Project configuration and on-disk layout.

FlorDB keeps all of its state under a single ``.flor`` directory at the root
of a project, mirroring the paper's design of one metadata home per project:

* ``flor.db``       — the SQLite database holding the relational data model,
* ``objects/``      — the content-addressed version store,
* ``checkpoints/``  — serialized loop checkpoints,
* ``staging/``      — files tracked for the next :func:`flor.commit`.

A :class:`ProjectConfig` is cheap to construct and carries no open handles;
subsystems open their own resources from the paths it exposes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ConfigError

FLOR_DIR_NAME = ".flor"
DB_FILE_NAME = "flor.db"
OBJECTS_DIR_NAME = "objects"
CHECKPOINTS_DIR_NAME = "checkpoints"
STAGING_DIR_NAME = "staging"

_DEFAULT_PROJECT_ENV = "FLOR_PROJECT_DIR"


def _sanitize_project_name(name: str) -> str:
    """Normalize a project name to a filesystem- and SQL-friendly token."""
    cleaned = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name.strip())
    if not cleaned:
        raise ConfigError(f"invalid project name: {name!r}")
    return cleaned


@dataclass(frozen=True)
class ProjectConfig:
    """Resolved locations of a FlorDB project.

    Parameters
    ----------
    root:
        Directory that contains (or will contain) the ``.flor`` home.
    projid:
        Project identifier recorded on every log record.  Defaults to the
        name of the root directory.
    """

    root: Path
    projid: str = field(default="")

    def __post_init__(self) -> None:
        root = Path(self.root).expanduser().resolve()
        object.__setattr__(self, "root", root)
        projid = self.projid or root.name or "project"
        object.__setattr__(self, "projid", _sanitize_project_name(projid))

    @cached_property
    def flor_dir(self) -> Path:
        return self.root / FLOR_DIR_NAME

    @cached_property
    def db_path(self) -> Path:
        return self.flor_dir / DB_FILE_NAME

    @cached_property
    def objects_dir(self) -> Path:
        return self.flor_dir / OBJECTS_DIR_NAME

    @cached_property
    def checkpoints_dir(self) -> Path:
        return self.flor_dir / CHECKPOINTS_DIR_NAME

    @cached_property
    def staging_dir(self) -> Path:
        return self.flor_dir / STAGING_DIR_NAME

    def ensure_layout(self) -> "ProjectConfig":
        """Create the on-disk directory layout if it does not exist."""
        for directory in (self.objects_dir, self.checkpoints_dir, self.staging_dir):
            if not directory.is_dir():  # reopening a project: a stat, not a refused mkdir
                directory.mkdir(parents=True, exist_ok=True)
        return self

    @classmethod
    def discover(cls, start: Path | str | None = None, projid: str | None = None) -> "ProjectConfig":
        """Locate the enclosing project, walking up from ``start``.

        If no ``.flor`` directory is found, the starting directory itself is
        treated as a fresh project root.  The ``FLOR_PROJECT_DIR`` environment
        variable overrides discovery entirely, which keeps tests hermetic.
        """
        env_root = os.environ.get(_DEFAULT_PROJECT_ENV)
        if env_root:
            return cls(Path(env_root), projid or "")
        current = Path(start) if start is not None else Path.cwd()
        current = current.expanduser().resolve()
        for candidate in (current, *current.parents):
            if (candidate / FLOR_DIR_NAME).is_dir():
                return cls(candidate, projid or "")
        return cls(current, projid or "")
