"""HTTP surface of the multi-tenant FlorDB service.

Routes (all JSON; ``<name>`` is a tenant/project name):

* ``POST /projects/<name>/logs`` — bulk-append log and loop records.  The
  body is ``{"records": [...], "loops": [...], "filename": ...}``; records
  are acknowledged with ``202`` once staged — ``"flushed": true`` in the
  response means the batch was *handed to the shard's background flusher*,
  not that it is already durable.  Durability comes from the next commit or
  read, both of which drain the flusher first.  Under an
  ``Idempotency-Key`` header (1–128 visible ASCII characters, else ``400``)
  the batch lands once however often it is sent: it goes to the flusher at
  once and ``202`` still means handed over, while a key that already
  committed is answered ``200 {"replayed": true}`` — its rows are durable —
  and stages nothing.  The newest ``KEPT_APPEND_KEYS`` keys of a tenant are
  kept; an unkeyed batch that is retried may land twice.
* ``POST /projects/<name>/commit`` — flush the shard's staged rows and run
  ``flor.commit`` (snapshot tracked files, record the ``ts2vid`` epoch).
* ``GET /projects/<name>/dataframe?names=a,b[&latest=1]`` — the pivoted
  view of the named log values, as ``{"columns": ..., "records": ...,
  "rows": N}`` (:mod:`repro.dataframe.wire`; a NaN or infinite value is
  ``null``).  The view, and its ``latest=1`` rows, are encoded once per
  materialized frame and re-served as the same bytes until an append
  replaces the frame.  A tenant whose shard is closed and whose database
  file is unchanged since the close is answered from those kept bytes
  without reopening SQLite (``pool.rest_hits``).
* ``GET /projects/<name>/sql?q=SELECT...[&names=a,b]`` — read-only SQL via
  :func:`repro.relational.sql.run_sql`; anything but SELECT/WITH (after
  leading comments) is a 400.  Without ``names`` a statement that reads
  only the physical tables through deterministic built-ins is answered
  from the shard's query cache — the same bytes — until something commits,
  a closed tenant's as well.
* ``GET /projects/<name>/stats`` — per-shard row counts and hand-off stats.
* ``GET /projects/<name>/tail`` — the live observability plane's tenant
  stream: committed log rows as server-sent events, resumable via
  ``Last-Event-ID``/``?since_seq=`` (see :mod:`repro.service.streams` and
  docs/observability.md).
* ``GET /service/telemetry`` — the metrics registry as one JSON snapshot,
  or a periodic SSE feed with ``?stream=1``.
* ``GET /jobs/<id>/tail`` — a job's event trail as SSE, ending with a
  ``done`` event at a terminal state (``repro jobs watch`` consumes it).
* ``GET /service/stats`` and ``GET /healthz`` — pool-level introspection.
  When the process runs as a fleet worker (``repro serve --workers N``
  spawns it with a :class:`~repro.fleet.worker.WorkerAgent`), the stats
  carry a ``worker`` block: id, pid, owned-shard count, heartbeat age.
* ``POST /fleet/drain`` — flush and seal (close) every open shard; the
  fleet supervisor's scale-down hand-off (see :mod:`repro.fleet`).

Multi-tenant QoS (:mod:`repro.qos`) rides the tenant-facing routes: when
the service runs with admission control enabled (``repro serve --qos`` or
``--qos-policy FILE``), every append/commit/read/job-submit is checked
against the tenant's policy first — over-limit requests are answered
``429`` with a computed ``Retry-After`` header (never queued), appends
larger than the tenant's whole byte quota are ``413``, and the policy
table itself is administered over:

* ``GET /service/policy`` — the full rule table (ordered rules, default,
  generation, whether enforcement is on).
* ``GET/PUT/DELETE /service/policy/<selector>`` — one rule; PUT rejects
  shadowed or contradictory rules with ``409`` and a structured
  ``detail`` (see :class:`~repro.errors.PolicyConflictError`).

Durable background jobs (:mod:`repro.jobs`) ride the same surface — a
backfill that replays dozens of versions must not block an HTTP request or
die with a worker:

* ``POST /projects/<name>/jobs/backfill`` — persist a backfill (or, with
  ``"kind": "replay"``, a plain replay) job and return ``202`` immediately;
  the body carries ``filename`` plus optional ``new_source``, ``versions``
  (every recorded run of these version ids), ``plan``, ``priority`` and
  ``max_attempts``.
* ``GET /jobs`` — recent jobs (``?project=``/``?state=``/``?limit=``).
* ``GET /jobs/<id>`` — the job's durable state-machine row.
* ``GET /jobs/<id>/events`` — its append-only trail (state transitions and
  per-version progress), incrementally via ``?after=<seq>``.
* ``POST /jobs/<id>/cancel`` and ``POST /jobs/<id>/retry``.

Submission is durable in the host-level jobs database; execution happens in
the :class:`~repro.jobs.JobRunner` workers embedded by ``repro serve
--job-workers N`` (or any external runner sharing the root).

Reads flush before querying, so a client always reads its own writes even
when its records are still staged.  Handlers run under the shard's lock
(see :mod:`repro.service.pool`), which makes the service safe to drive
from many threads — the shape the T8 benchmark measures.  Dataframe and
SQL reads are served by the shard's :class:`~repro.query.QueryEngine`:
the pivoted view stays materialized across requests, ingestion flushes
invalidate it via generation counters, and only the appended delta is
merged on the next read (benchmark T9 measures the effect).
"""

from __future__ import annotations

import math
import re
import threading
from pathlib import Path
from typing import Any

from ..config import FLOR_DIR_NAME
from ..errors import (
    DatabaseError,
    JobError,
    JobNotFoundError,
    PolicyConflictError,
    QosError,
    ReproError,
)
from ..jobs import JOB_KINDS, JOBS_DB_FILENAME, KIND_BACKFILL, JobStore
from ..obs import MetricsRegistry, TailBroker
from ..qos import AdmissionController, PolicyStore, rule_from_payload
from ..relational.records import JOB_STATES
from ..relational.schema import TABLES
from ..runtime.buffer import log_row
from ..webapp.framework import HttpError, JsonResponse, Request, Response, WebApp
from .pool import SERVICE_FILENAME, DatabasePool
from .stats import service_stats_payload, shard_stats_payload, telemetry_payload
from .streams import (
    DEFAULT_KEEPALIVE,
    clamp_keepalive,
    job_tail_response,
    project_tail_response,
    telemetry_stream_response,
)

#: Tenant names must be plain path-safe tokens (no separators, no ``..``).
_PROJECT_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_APPEND_KEY_RE = re.compile(r"[\x21-\x7e]{1,128}")


class FlorService:
    """Many concurrent clients, one FlorDB host directory.

    Parameters
    ----------
    root:
        Directory holding one project subdirectory per tenant.
    pool_capacity:
        Maximum simultaneously open shards (LRU beyond that).
    flush_size / flush_interval:
        Hand-off policy for appended rows, applied per shard (see
        :meth:`~repro.service.pool.ProjectShard.append`).  ``flush_size=1``
        disables batching (every append is its own transaction).
    backend:
        ``"sqlite"`` (default) or ``"memory"``; see
        :class:`~repro.service.pool.DatabasePool`.
    shard_factory:
        ``(name) -> ProjectShard`` hook forwarded to the pool, replacing
        how a shard's session is built — the chaos harness uses it to
        build shards over fault-wrapped stores
        (:func:`repro.testing.soak.chaos_shard_factory`).
    """

    def __init__(
        self,
        root: Path | str,
        *,
        pool_capacity: int = 8,
        flush_size: int = 64,
        flush_interval: float | None = 0.5,
        backend: str = "sqlite",
        shard_factory=None,
        job_store: JobStore | None = None,
        qos: bool = False,
        qos_policy_file: Path | str | None = None,
        admission_refresh: float = 2.0,
        tail_max_subscribers: int = 512,
        tail_max_lag: int = 100_000,
    ):
        self.root = Path(root)
        self.flush_size = flush_size
        self.flush_interval = flush_interval
        #: The observability plane: one outermost metrics registry and one
        #: tail broker per service process.  Every component counts in its
        #: own scope; the pool attaches each shard session's to this
        #: registry, the job store's and the admission controller's are
        #: attached below.  The pool's post-commit ``on_ingest`` hook feeds
        #: the broker, so a tail subscriber woken by a publish can already
        #: read the rows.
        self.metrics = MetricsRegistry()
        self.tail = TailBroker(
            max_subscribers=tail_max_subscribers, max_lag=tail_max_lag
        )
        self.pool = DatabasePool(
            self.root,
            capacity=pool_capacity,
            flush_size=flush_size,
            flush_interval=flush_interval,
            backend=backend,
            shard_factory=shard_factory,
            metrics=self.metrics,
            on_ingest=self._publish_ingest,
        )
        self._job_store = job_store
        self._owns_job_store = job_store is None
        if job_store is not None:
            self._adopt_job_store(job_store)
        self._jobs_lock = threading.Lock()
        self._policy_store: PolicyStore | None = None
        self._policy_lock = threading.Lock()
        #: Admission control (repro.qos) — ``None`` unless QoS is enabled,
        #: and the hot paths check exactly that one attribute, so a service
        #: without QoS pays nothing (the T15 benchmark asserts no T8-shape
        #: regression with QoS off).  Enabled by ``qos=True`` or by passing
        #: a policy file (``repro serve --qos-policy``), whose rules are
        #: loaded — with full conflict checking — before serving starts.
        self.admission: AdmissionController | None = None
        if qos_policy_file is not None:
            self._policy_store = PolicyStore.load_file(self.root, qos_policy_file)
            qos = True
        if qos:
            self.admission = AdmissionController(
                self.policies, refresh_interval=admission_refresh
            )
            self.admission.metrics.attach(self.metrics)
        self._app: WebApp | None = None
        #: Set by the CLI when this service runs as one worker of a fleet
        #: (:mod:`repro.fleet`); ``/service/stats`` then carries the worker
        #: identity block so the router's aggregated view is debuggable per
        #: process.  Duck-typed (``id``/``info()``) to keep the service
        #: layer import-free of the fleet package.
        self.worker_agent = None

    def _publish_ingest(self, name: str, count: int) -> None:
        """Pool post-commit hook → tail wakeups for the tenant's stream."""
        self.tail.publish(f"project:{name}", count)

    def _publish_job_event(self, job_id: int) -> None:
        """Job-store post-commit hook → wakeups for the job's tail stream."""
        self.tail.publish(f"job:{job_id}")

    def _adopt_job_store(self, store: JobStore) -> None:
        """Count the store's transitions here and tail its events."""
        store.metrics.attach(self.metrics)
        store.on_event = self._publish_job_event

    def project_exists(self, name: str) -> bool:
        """Whether ``name`` is an open shard or has a ``.flor`` home on disk."""
        return name in self.pool or (self.root / name / FLOR_DIR_NAME).is_dir()

    @property
    def jobs(self) -> JobStore:
        """The host-level durable job store (``<root>/.flor-jobs.db``), lazily
        opened — a service that never touches jobs never creates the file.
        Requests on different connections run on different server threads
        at once, so the first-open is locked: exactly one store (and SQLite
        handle) per service."""
        with self._jobs_lock:
            if self._job_store is None:
                self._job_store = JobStore.open(self.root)
                self._adopt_job_store(self._job_store)
            return self._job_store

    @property
    def policies(self) -> PolicyStore:
        """The host-level QoS policy store (``<root>/.flor-qos.db``), lazily
        opened so the policy admin routes work — and ``repro policy set``
        prepared rules are visible — even on a service running with
        enforcement off."""
        with self._policy_lock:
            if self._policy_store is None:
                self._policy_store = PolicyStore.open(self.root)
            return self._policy_store

    def job_counts(self) -> dict[str, int]:
        """Per-state job counts without forcing the store into existence."""
        if self._job_store is None and not (self.root / JOBS_DB_FILENAME).exists():
            return {state: 0 for state in JOB_STATES}
        return self.jobs.counts()

    def close(self) -> None:
        """Flush and close every open shard (and the job store, if opened)."""
        self.tail.close()
        try:
            self.pool.close()
        finally:
            if self._job_store is not None and self._owns_job_store:
                self._job_store.close()
                self._job_store = None
            if self._policy_store is not None:
                self._policy_store.close()
                self._policy_store = None

    # ------------------------------------------------------------------- app
    def app(self) -> WebApp:
        """The (cached) :class:`~repro.webapp.framework.WebApp` for this host."""
        if self._app is None:
            self._app = create_app(self)
        return self._app


def validate_project_name(name: str) -> str:
    """Reject tenant names that could escape the root (shared with the
    fleet router, which must refuse them *before* hashing a placement)."""
    if ".." in name or not _PROJECT_NAME_RE.match(name):
        raise HttpError(400, f"invalid project name: {name!r}")
    return name


_validated_name = validate_project_name


#: ``/projects/<name>/<sub-path>`` → whether the request body counts against
#: the tenant's byte quota.  Every sub-path listed costs one rate token;
#: anything else — stats, unknown paths — is not admission-controlled.  The
#: one table both admission points read (this service, and the fleet router
#: in front of workers that run with admission off).
ADMITTED_SUBPATHS = {
    ("logs",): True,
    ("commit",): False,
    ("dataframe",): False,
    ("sql",): False,
    ("tail",): False,
    ("jobs", "backfill"): False,
}


def enforce_admission(
    admission: AdmissionController | None,
    tenant: str,
    subpath: tuple[str, ...],
    request: Request,
) -> None:
    """Run one admission check and raise its HTTP mapping when denied.

    Shared by the single-process service and the fleet router (which
    enforces *instead of* its workers — exactly one charge per request).
    Throttles become ``429`` and hard rejects ``413``, both carrying a
    ``Retry-After`` header (decimal seconds) and a structured ``detail``
    body — never silent queuing.
    """
    charges_body = ADMITTED_SUBPATHS.get(subpath)
    if admission is None or charges_body is None:
        return
    nbytes = len(request.body) if charges_body else 0
    decision = admission.admit(tenant, nbytes)
    if decision.allowed:
        return
    retry_after = max(decision.retry_after, 0.001)
    headers = {"Retry-After": f"{retry_after:.3f}"}
    detail = {"reason": decision.reason, "retry_after": retry_after, "tenant": tenant}
    if decision.rejected:
        raise HttpError(
            413,
            f"request of {nbytes} bytes exceeds tenant {tenant!r}'s entire byte quota",
            detail=detail,
            headers=headers,
        )
    raise HttpError(
        429,
        f"tenant {tenant!r} is over its {decision.reason} limit",
        detail=detail,
        headers=headers,
    )


_JSON = {"Content-Type": "application/json"}


def _json_body(request: Request) -> dict[str, Any]:
    try:
        payload = request.get_json()
    except ReproError as exc:
        raise HttpError(400, str(exc)) from exc
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    return payload


def register_policy_routes(app: WebApp, get_policies, get_admission) -> None:
    """Mount the policy admin surface on ``app``.

    ``GET /service/policy`` (the whole table), ``GET/PUT/DELETE
    /service/policy/<selector>``.  Shared between the single-process
    service and the fleet router's control plane (which owns the one
    policy view for the whole fleet), so both speak the same protocol:
    conflicting writes are ``409`` with the structured
    :meth:`~repro.errors.PolicyConflictError.as_dict` detail, malformed
    rules are ``400``.  ``get_policies``/``get_admission`` are thunks so
    the stores stay lazily opened.
    """

    @app.route("/service/policy")
    def policy_table(_request: Request):
        policies = get_policies()
        default = policies.default()
        return JsonResponse(
            {
                "generation": policies.generation(),
                "enforcing": get_admission() is not None,
                "rules": [rule.as_dict() for rule in policies.rules()],
                "default": None if default is None else default.as_dict(),
            }
        )

    @app.route("/service/policy/<selector>")
    def policy_get(_request: Request, selector: str):
        policies = get_policies()
        try:
            rule = policies.get(selector)
        except QosError as exc:
            raise HttpError(400, str(exc)) from exc
        payload: dict[str, Any] = {
            "selector": selector,
            "rule": None if rule is None else rule.as_dict(),
        }
        if "*" not in selector:
            # A concrete tenant name: also say which rule actually governs
            # it (an exact rule, a prefix rule, the default, or the
            # built-in unlimited policy).
            payload["resolved"] = policies.resolve(selector).as_dict()
        elif rule is None:
            raise HttpError(404, f"no policy rule for selector {selector!r}")
        return JsonResponse(payload)

    @app.route("/service/policy/<selector>", methods=("PUT",))
    def policy_put(request: Request, selector: str):
        policies = get_policies()
        try:
            stored = policies.put(rule_from_payload(selector, _json_body(request)))
        except PolicyConflictError as exc:
            raise HttpError(409, str(exc), detail=exc.as_dict()) from exc
        except QosError as exc:
            raise HttpError(400, str(exc)) from exc
        return JsonResponse(
            {"rule": stored.as_dict(), "generation": policies.generation()}
        )

    @app.route("/service/policy/<selector>", methods=("DELETE",))
    def policy_delete(_request: Request, selector: str):
        policies = get_policies()
        try:
            removed = policies.delete(selector)
        except QosError as exc:
            raise HttpError(400, str(exc)) from exc
        if not removed:
            raise HttpError(404, f"no policy rule for selector {selector!r}")
        return JsonResponse({"deleted": selector, "generation": policies.generation()})


def register_telemetry_route(app: WebApp, snapshot) -> None:
    """Mount ``GET /service/telemetry``: one ``snapshot()`` as JSON, or with
    ``?stream=1[&interval=S]`` a periodic SSE feed of it.  Shared by the
    single-process service (its registry) and the fleet router (its fan-in
    over the workers), so both speak the same protocol."""

    @app.route("/service/telemetry")
    def service_telemetry(request: Request):
        if (request.arg("stream") or "").lower() in ("1", "true", "yes", "sse"):
            interval = _float_arg(request, "interval", 2.0, lo=0.05, hi=60.0)
            return telemetry_stream_response(snapshot, interval=interval)
        return JsonResponse(snapshot())


def _record_list(payload: dict[str, Any], key: str) -> list[dict[str, Any]]:
    items = payload.get(key, [])
    if not isinstance(items, list) or any(not isinstance(i, dict) for i in items):
        raise HttpError(400, f"{key!r} must be a list of objects")
    return items


def _int_field(item: dict[str, Any], key: str, default: int = 0) -> int:
    value = item.get(key, default)
    try:
        parsed = int(value)
        # A SQLite INTEGER: a key past 64 bits is refused here, not by the
        # flusher after the request was acked.
        if -(2**63) <= parsed < 2**63:
            return parsed
    except (TypeError, ValueError, OverflowError):
        pass
    raise HttpError(400, f"{key!r} must be a 64-bit integer, got {value!r}")


def _float_arg(request: Request, name: str, default: float, *, lo: float, hi: float) -> float:
    raw = request.arg(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # NaN would pass the clamp and spin a wait
        raise HttpError(400, f"{name!r} must be a finite number, got {raw!r}")
    return min(max(value, lo), hi)


def request_header(request: Request, name: str) -> str | None:
    """Case-insensitive header lookup (HTTP headers arrive as sent)."""
    target = name.lower()
    for key, value in request.headers.items():
        if key.lower() == target:
            return value
    return None


def tail_cursor(request: Request) -> int:
    """The resume cursor of a tail request.

    The SSE-standard ``Last-Event-ID`` header (what a reconnecting
    ``EventSource`` presents automatically) wins over the ``since_seq``
    query parameter (the explicit form for curl and the CLI); both name
    the last sequence number already delivered, so the stream resumes
    strictly after it.
    """
    raw = request_header(request, "Last-Event-ID")
    if raw is None:
        raw = request.arg("since_seq") or "0"
    try:
        return max(0, int(raw))
    except ValueError as exc:
        raise HttpError(400, f"tail cursor must be an integer, got {raw!r}") from exc


def _keepalive_arg(request: Request) -> float:
    return clamp_keepalive(
        _float_arg(request, "keepalive", DEFAULT_KEEPALIVE, lo=0.01, hi=600.0)
    )


def _staged_rows(session, payload: dict[str, Any]) -> tuple[list[tuple], list[tuple]]:
    """Validate an append body into :meth:`Session.stage` rows, in one pass.

    Each item becomes its staged row directly (:func:`log_row` for a log
    record).  Raises before anything is staged, so a 400 leaves nothing
    behind for a later flush to write.  An integer already in SQLite's 64
    bits is taken as is; anything else goes through :func:`_int_field`.
    """
    projid, tstamp = session.projid, session.tstamp
    default_filename = str(payload.get("filename") or SERVICE_FILENAME)
    logs = []
    for item in _record_list(payload, "records"):
        if "name" not in item:
            raise HttpError(400, "every log record needs a 'name'")
        ctx_id = item.get("ctx_id", 0)
        if type(ctx_id) is not int or not -(2**63) <= ctx_id < 2**63:
            ctx_id = _int_field(item, "ctx_id")
        logs.append(
            log_row(
                projid,
                str(item.get("tstamp") or tstamp),
                str(item.get("filename") or default_filename),
                ctx_id,
                str(item["name"]),
                item.get("value"),
            )
        )
    loops = []
    for item in _record_list(payload, "loops"):
        if "loop_name" not in item:
            raise HttpError(400, "every loop record needs a 'loop_name'")
        ctx_id = item.get("ctx_id", 0)
        if type(ctx_id) is not int or not -(2**63) <= ctx_id < 2**63:
            ctx_id = _int_field(item, "ctx_id")
        parent = item.get("parent_ctx_id")
        if parent is not None and (type(parent) is not int or not -(2**63) <= parent < 2**63):
            parent = _int_field(item, "parent_ctx_id")
        iteration = item.get("loop_iteration", 0)
        if type(iteration) is not int or not -(2**63) <= iteration < 2**63:
            iteration = _int_field(item, "loop_iteration")
        loops.append(
            (
                projid,
                str(item.get("tstamp") or tstamp),
                str(item.get("filename") or default_filename),
                ctx_id,
                parent,
                str(item["loop_name"]),
                iteration,
                str(item.get("iteration_value", "")),
            )
        )
    if not logs and not loops:
        raise HttpError(400, "no records to append ('records' and 'loops' both empty)")
    return logs, loops


def create_app(service: FlorService) -> WebApp:
    """Build the route table for ``service`` (one WebApp per host)."""
    app = WebApp("flordb-service")
    pool = service.pool

    def _existing(name: str) -> str:
        """Validate a tenant name for a *read*: reads never create tenants.

        POST endpoints create the project on first touch (that is how a
        tenant is born); letting GETs do the same would materialize a
        database directory — and burn an LRU slot — for every typo'd or
        scanning request.
        """
        name = _validated_name(name)
        if not service.project_exists(name):
            raise HttpError(404, f"unknown project {name!r}")
        return name

    @app.route("/healthz")
    def healthz(_request: Request):
        return JsonResponse({"status": "ok", "root": str(service.root)})

    @app.route("/service/stats")
    def service_stats(_request: Request):
        return JsonResponse(service_stats_payload(service))

    register_telemetry_route(app, lambda: telemetry_payload(service))
    register_policy_routes(app, lambda: service.policies, lambda: service.admission)

    @app.route("/fleet/drain", methods=("POST",))
    def fleet_drain(_request: Request):
        """Flush and seal (close) every open shard — the scale-down hand-off.

        After a successful drain no acknowledged row is buffered in this
        process and no shard database is held open, so the fleet ring can
        reassign this worker's projects to peers that will reopen the
        SQLite files fresh.  Also safe (and a no-op) on an idle worker.
        """
        names = pool.open_shards()
        flushed = pool.flush_all()
        for name in names:
            pool.evict(name)
        return JsonResponse({"flushed": flushed, "sealed_shards": names})

    @app.route("/projects/<name>/logs", methods=("POST",))
    def append_logs(request: Request, name: str):
        name = _validated_name(name)
        enforce_admission(service.admission, name, ("logs",), request)
        key = request_header(request, "Idempotency-Key")
        if key is not None and not _APPEND_KEY_RE.fullmatch(key):
            raise HttpError(400, "an Idempotency-Key is 1 to 128 visible ASCII characters")
        payload = _json_body(request)
        with pool.checkout(name) as shard:
            logs, loops = _staged_rows(shard.session, payload)
            if key is None:
                flushed = shard.append(logs, loops)
            elif shard.append_keyed(key, logs, loops):
                flushed = True
            else:
                return JsonResponse({"replayed": True})
            return JsonResponse(
                {
                    "queued": len(logs) + len(loops),
                    "flushed": flushed,
                    "pending": shard.pending,
                },
                status=202,
            )

    @app.route("/projects/<name>/commit", methods=("POST",))
    def commit(request: Request, name: str):
        name = _validated_name(name)
        enforce_admission(service.admission, name, ("commit",), request)
        payload = _json_body(request)
        message = str(payload.get("message", ""))
        with pool.checkout(name) as shard:
            shard.flush()
            vid = shard.session.commit(message)
            return JsonResponse({"vid": vid, "tstamp": shard.session.tstamp})

    def _read(name: str, at_rest, through_shard) -> Response:
        """A tenant read: ``at_rest(cache, projid, write_version)`` when the
        tenant is closed and its file unchanged since (see
        :meth:`DatabasePool.read_at_rest`), else ``through_shard(session)``
        on the checked-out, flushed shard."""
        body = pool.read_at_rest(name, at_rest) if at_rest is not None else None
        if body is None:
            with pool.checkout(name) as shard:
                shard.flush()
                body = through_shard(shard.session)
        return Response(body, headers=dict(_JSON))

    @app.route("/projects/<name>/dataframe")
    def dataframe(request: Request, name: str):
        names_arg = request.arg("names", "") or ""
        names = [n for n in names_arg.split(",") if n]
        if not names:
            raise HttpError(400, "the 'names' query parameter is required (comma-separated)")
        latest = request.arg("latest") in ("1", "true", "yes")
        name = _existing(name)
        enforce_admission(service.admission, name, ("dataframe",), request)
        return _read(
            name,
            lambda cache, projid, version: cache.fast_dataframe_body(
                projid, names, latest=latest, write_version=version
            ),
            lambda session: session.dataframe_body(names, latest=latest),
        )

    @app.route("/projects/<name>/sql")
    def sql(request: Request, name: str):
        query = request.arg("q") or request.arg("query")
        if not query:
            raise HttpError(400, "the 'q' query parameter is required")
        names_arg = request.arg("names", "") or ""
        names = [n for n in names_arg.split(",") if n]
        name = _existing(name)
        enforce_admission(service.admission, name, ("sql",), request)

        def through_shard(session) -> bytes:
            try:
                return session.sql_body(query, names=names)
            except DatabaseError as exc:
                # run_sql's read-only guard (and malformed SQL) land here:
                # the context store is append-only from the query surface.
                raise HttpError(400, str(exc)) from exc

        # Only a plain statement's answer is kept (``names`` builds a view).
        at_rest = None if names else (
            lambda cache, projid, version: cache.fast_sql_body(projid, query, version)
        )
        return _read(name, at_rest, through_shard)

    @app.route("/projects/<name>/tail")
    def project_tail(request: Request, name: str):
        """Live SSE tail of a tenant's committed log rows (resumable)."""
        name = _existing(name)
        enforce_admission(service.admission, name, ("tail",), request)
        return project_tail_response(
            service,
            name,
            cursor=tail_cursor(request),
            keepalive=_keepalive_arg(request),
        )

    # ----------------------------------------------------------------- jobs
    def _job_id(raw: str) -> int:
        return _int_field({"job id": raw}, "job id")

    def _required_job(raw: str):
        job = service.jobs.get(_job_id(raw))
        if job is None:
            raise HttpError(404, f"unknown job {raw}")
        return job

    @app.route("/projects/<name>/jobs/backfill", methods=("POST",))
    def submit_backfill_job(request: Request, name: str):
        """Persist a backfill/replay job and acknowledge immediately (202).

        The heavy work — replaying every historical version — happens in the
        job workers under lease supervision; the response carries the durable
        job row the client polls via ``GET /jobs/<id>``.
        """
        name = _existing(name)
        enforce_admission(service.admission, name, ("jobs", "backfill"), request)
        payload = _json_body(request)
        filename = payload.get("filename")
        if not filename or not isinstance(filename, str):
            raise HttpError(400, "the job payload needs a 'filename' string")
        kind = str(payload.get("kind", KIND_BACKFILL))
        if kind not in JOB_KINDS:
            raise HttpError(400, f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
        job_payload: dict[str, Any] = {"filename": filename}
        if payload.get("new_source") is not None:
            if not isinstance(payload["new_source"], str):
                raise HttpError(400, "'new_source' must be a string of source code")
            job_payload["new_source"] = payload["new_source"]
        if payload.get("versions") is not None:
            versions = payload["versions"]
            if not isinstance(versions, list) or any(not isinstance(v, str) for v in versions):
                raise HttpError(400, "'versions' must be a list of version-id strings")
            job_payload["versions"] = versions
        if payload.get("plan") is not None:
            if not isinstance(payload["plan"], dict):
                raise HttpError(400, "'plan' must be an object mapping loop name to iterations")
            job_payload["plan"] = payload["plan"]
        if "include_latest" in payload:
            job_payload["include_latest"] = bool(payload["include_latest"])
        # An explicit priority wins; otherwise the tenant's policy class
        # (high/normal/low → jobs.priority) decides where the job queues.
        default_priority = 0
        if service.admission is not None and "priority" not in payload:
            default_priority = service.admission.job_priority(name)
        try:
            job = service.jobs.submit(
                name,
                kind,
                job_payload,
                priority=_int_field(payload, "priority", default_priority),
                max_attempts=_int_field(payload, "max_attempts", 3),
            )
        except JobError as exc:
            raise HttpError(400, str(exc)) from exc
        return JsonResponse({"job": job.as_dict()}, status=202)

    @app.route("/jobs")
    def list_jobs(request: Request):
        project = request.arg("project")
        if project is not None:
            project = _validated_name(project)
        state = request.arg("state")
        try:
            jobs = service.jobs.list_jobs(
                project=project, state=state, limit=_int_field(dict(request.query), "limit", 50)
            )
        except JobError as exc:
            raise HttpError(400, str(exc)) from exc
        return JsonResponse({"jobs": [job.as_dict() for job in jobs]})

    @app.route("/jobs/<job_id>")
    def job_status(_request: Request, job_id: str):
        return JsonResponse({"job": _required_job(job_id).as_dict()})

    @app.route("/jobs/<job_id>/events")
    def job_events(request: Request, job_id: str):
        job = _required_job(job_id)
        after = _int_field(dict(request.query), "after", 0)
        events = service.jobs.events(job.id, after=after)
        return JsonResponse(
            {
                "job_id": job.id,
                "state": job.state,
                "events": [event.as_dict() for event in events],
                "last_seq": events[-1].seq if events else after,
            }
        )

    @app.route("/jobs/<job_id>/tail")
    def job_tail(request: Request, job_id: str):
        """Live SSE tail of a job's event trail, ending with ``done``."""
        job = _required_job(job_id)
        return job_tail_response(
            service,
            job.id,
            cursor=tail_cursor(request),
            keepalive=_keepalive_arg(request),
        )

    @app.route("/jobs/<job_id>/cancel", methods=("POST",))
    def cancel_job(_request: Request, job_id: str):
        job = _required_job(job_id)
        try:
            job = service.jobs.cancel(job.id)
        except JobNotFoundError as exc:  # pragma: no cover - raced deletion
            raise HttpError(404, str(exc)) from exc
        return JsonResponse({"job": job.as_dict()})

    @app.route("/jobs/<job_id>/retry", methods=("POST",))
    def retry_job(_request: Request, job_id: str):
        job = _required_job(job_id)
        try:
            job = service.jobs.retry(job.id)
        except JobError as exc:
            raise HttpError(409, str(exc)) from exc
        return JsonResponse({"job": job.as_dict()})

    @app.route("/projects/<name>/stats")
    def project_stats(request: Request, name: str):
        with pool.checkout(_existing(name)) as shard:
            tables = {
                table: shard.session.db.count(table) for table in TABLES if table != "meta"
            }
            return JsonResponse(
                {"tables": tables, **shard_stats_payload(service, shard)}
            )

    return app
