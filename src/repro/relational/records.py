"""Typed row objects for the relational data model.

Each dataclass mirrors one physical table from Figure 1.  Values logged via
``flor.log`` are serialized to text together with a small type tag
(``value_type``) so that the original Python type is restored when the value
is read back into a dataframe.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any

#: value_type tags used in the ``logs`` table.
VALUE_TYPE_STR = 0
VALUE_TYPE_INT = 1
VALUE_TYPE_FLOAT = 2
VALUE_TYPE_BOOL = 3
VALUE_TYPE_JSON = 4
VALUE_TYPE_NONE = 5


def encode_value(value: Any) -> tuple[str | None, int]:
    """Serialize a logged value to ``(text, value_type)``.

    Scalars keep their type tag; anything else is stored as JSON when
    possible and as ``repr`` text otherwise.  A numpy scalar and a
    ``float`` / ``int`` / ``str`` subclass are stored exactly as the plain
    Python value they stand for (``np.float64(0.25)`` as ``0.25``).
    """
    kind = type(value)
    if kind is float:
        return repr(value), VALUE_TYPE_FLOAT
    if kind is str:
        return value, VALUE_TYPE_STR
    if kind is int:
        return str(value), VALUE_TYPE_INT
    if kind is bool:
        return ("1" if value else "0"), VALUE_TYPE_BOOL
    if value is None:
        return None, VALUE_TYPE_NONE
    plain = _plain_scalar(value)
    if plain is not value:
        return encode_value(plain)
    try:
        return json.dumps(value, sort_keys=True, default=str), VALUE_TYPE_JSON
    except (TypeError, ValueError):
        return repr(value), VALUE_TYPE_STR


def _plain_scalar(value: Any) -> Any:
    """The plain Python scalar behind a numpy scalar or a ``float`` / ``int``
    / ``str`` subclass, else ``value``.  numpy is looked up, not imported: a
    process that never imported it holds no numpy scalar."""
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.generic):
        item = value.item()  # np.longdouble's item() is itself
        return value if isinstance(item, numpy.generic) else item
    for kind, plain in ((float, float.__float__), (int, int.__int__), (str, str.__str__)):
        if isinstance(value, kind):
            return plain(value)
    return value


def decode_value(text: str | None, value_type: int) -> Any:
    """Inverse of :func:`encode_value`."""
    if value_type == VALUE_TYPE_NONE or text is None:
        return None
    if value_type == VALUE_TYPE_BOOL:
        return text == "1"
    if value_type == VALUE_TYPE_INT:
        return int(text)
    if value_type == VALUE_TYPE_FLOAT:
        return float(text)
    if value_type == VALUE_TYPE_JSON:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return text
    return text


@dataclass(frozen=True)
class LogRecord:
    """One row of ``logs``: a single named value emitted by ``flor.log``."""

    projid: str
    tstamp: str
    filename: str
    ctx_id: int
    value_name: str
    value: str | None
    value_type: int = VALUE_TYPE_STR

    def decoded(self) -> Any:
        return decode_value(self.value, self.value_type)

    def as_row(self) -> tuple:
        """Bind parameters for the ``logs`` INSERT: the row form the
        repositories write and every staged row already has."""
        return (
            self.projid,
            self.tstamp,
            self.filename,
            self.ctx_id,
            self.value_name,
            self.value,
            self.value_type,
        )

    @classmethod
    def create(
        cls,
        projid: str,
        tstamp: str,
        filename: str,
        ctx_id: int,
        value_name: str,
        value: Any,
    ) -> "LogRecord":
        text, value_type = encode_value(value)
        return cls(projid, tstamp, filename, ctx_id, value_name, text, value_type)


@dataclass(frozen=True)
class LoopRecord:
    """One row of ``loops``: a single iteration of a ``flor.loop``."""

    projid: str
    tstamp: str
    filename: str
    ctx_id: int
    parent_ctx_id: int | None
    loop_name: str
    loop_iteration: int
    iteration_value: str | None

    def as_row(self) -> tuple:
        """Bind parameters for the ``loops`` INSERT (see ``LogRecord.as_row``)."""
        return (
            self.projid,
            self.tstamp,
            self.filename,
            self.ctx_id,
            self.parent_ctx_id,
            self.loop_name,
            self.loop_iteration,
            self.iteration_value,
        )


@dataclass(frozen=True)
class Ts2VidRecord:
    """One row of ``ts2vid``: a timestamp epoch mapped to a version id."""

    projid: str
    ts_start: str
    ts_end: str
    vid: str
    root_target: str | None = None


@dataclass(frozen=True)
class ObjectRecord:
    """One row of ``obj_store``: a serialized large object (e.g. checkpoint)."""

    projid: str
    tstamp: str
    filename: str
    ctx_id: int
    value_name: str
    contents: bytes = field(repr=False, default=b"")


#: Job lifecycle states (``jobs.state``).  ``queued`` rows are claimable;
#: ``leased``/``running`` rows are owned by a worker under a lease;
#: ``succeeded``/``failed``/``cancelled`` are terminal (``retry`` re-queues).
JOB_QUEUED = "queued"
JOB_LEASED = "leased"
JOB_RUNNING = "running"
JOB_SUCCEEDED = "succeeded"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATES = (JOB_QUEUED, JOB_LEASED, JOB_RUNNING, JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED)
JOB_TERMINAL_STATES = (JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED)


def _loads_or_empty(text: str | None) -> dict:
    if not text:
        return {}
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return loaded if isinstance(loaded, dict) else {}


@dataclass(frozen=True)
class JobRecord:
    """One row of ``jobs``: a durable unit of supervised background work."""

    id: int
    project: str
    kind: str
    payload: dict
    state: str
    priority: int = 0
    attempts: int = 0
    max_attempts: int = 3
    not_before: float = 0.0
    cancel_requested: bool = False
    lease_owner: str | None = None
    lease_expires: float | None = None
    created_at: float = 0.0
    updated_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = None

    #: SELECT column order mirrored by :meth:`from_row`.
    COLUMNS = (
        "id", "project", "kind", "payload", "state", "priority", "attempts",
        "max_attempts", "not_before", "cancel_requested", "lease_owner",
        "lease_expires", "created_at", "updated_at", "started_at",
        "finished_at", "error", "result",
    )

    @property
    def terminal(self) -> bool:
        return self.state in JOB_TERMINAL_STATES

    @classmethod
    def from_row(cls, row: tuple) -> "JobRecord":
        (
            id_, project, kind, payload, state, priority, attempts, max_attempts,
            not_before, cancel_requested, lease_owner, lease_expires,
            created_at, updated_at, started_at, finished_at, error, result,
        ) = row
        return cls(
            id=int(id_),
            project=project,
            kind=kind,
            payload=_loads_or_empty(payload),
            state=state,
            priority=int(priority),
            attempts=int(attempts),
            max_attempts=int(max_attempts),
            not_before=float(not_before),
            cancel_requested=bool(cancel_requested),
            lease_owner=lease_owner,
            lease_expires=None if lease_expires is None else float(lease_expires),
            created_at=float(created_at),
            updated_at=float(updated_at),
            started_at=None if started_at is None else float(started_at),
            finished_at=None if finished_at is None else float(finished_at),
            error=error,
            result=None if result is None else _loads_or_empty(result),
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe view served by the HTTP API and printed by the CLI."""
        return {
            "id": self.id,
            "project": self.project,
            "kind": self.kind,
            "payload": self.payload,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "cancel_requested": self.cancel_requested,
            "lease_owner": self.lease_owner,
            "lease_expires": self.lease_expires,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "result": self.result,
        }


@dataclass(frozen=True)
class JobEventRecord:
    """One row of ``job_events``: an append-only entry in a job's trail."""

    seq: int
    job_id: int
    kind: str
    payload: dict
    created_at: float = 0.0

    @classmethod
    def from_row(cls, row: tuple) -> "JobEventRecord":
        seq, job_id, kind, payload, created_at = row
        return cls(
            seq=int(seq),
            job_id=int(job_id),
            kind=kind,
            payload=_loads_or_empty(payload),
            created_at=float(created_at),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "kind": self.kind,
            "payload": self.payload,
            "created_at": self.created_at,
        }


@dataclass(frozen=True)
class BuildDepRecord:
    """One row of ``build_deps``: a build target captured at a version."""

    vid: str
    target: str
    deps: tuple[str, ...] = ()
    cmds: tuple[str, ...] = ()
    cached: bool = False

    def deps_json(self) -> str:
        return json.dumps(list(self.deps))

    def cmds_json(self) -> str:
        return json.dumps(list(self.cmds))

    @classmethod
    def from_row(cls, row: tuple) -> "BuildDepRecord":
        vid, target, deps, cmds, cached = row
        return cls(
            vid=vid,
            target=target,
            deps=tuple(json.loads(deps)),
            cmds=tuple(json.loads(cmds)),
            cached=bool(cached),
        )
