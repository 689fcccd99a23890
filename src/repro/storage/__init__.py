"""Pluggable storage backends behind the :mod:`repro.storage.protocols` seam.

Import the protocols eagerly (they are pure typing, no dependencies) and the
backends lazily: the backend modules import from :mod:`repro.relational` and
:mod:`repro.versioning`, which themselves may type-reference this package —
eager imports here would create a cycle.
"""

from __future__ import annotations

from .protocols import BlobStore, RelationalStore

__all__ = [
    "BlobStore",
    "RelationalStore",
    "FaultyBlobStore",
    "FaultyRelationalStore",
    "MemoryBlobStore",
    "MemoryRelationalStore",
]

_LAZY = {
    "FaultyBlobStore": ".faults",
    "FaultyRelationalStore": ".faults",
    "MemoryBlobStore": ".memory",
    "MemoryRelationalStore": ".memory",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
