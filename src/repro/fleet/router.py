"""The fleet front door: a thin, stateless project-hash proxy.

The router owns *placement*, never data: every ``/projects/<name>/...``
request is relayed to the one worker the consistent-hash ring assigns
``<name>`` to.  The relay writes the request head anew (the request line,
``Host``, ``Content-Length`` and, of the client's fields, only
``Content-Type`` and ``Idempotency-Key``) and sends it with the body in one
write; the worker's answer comes back as the bytes it sent, head and body,
and the client gets them unchanged — the worker's ``Server``, ``Date`` and
``Content-Length`` included — unless the worker sent a field about its own
connection (see :func:`repro.webapp.http1.relay_head`).  The single
exception: ``/projects/<name>/stats`` is annotated with the serving worker
id, so the per-process durability counters in it can be attributed.
Project-less job routes (``/jobs``, ``/jobs/<id>/...``) round-robin over
the ring — the durable job store is one host-level SQLite file whose
claiming is CAS-safe across processes, so any worker can answer for it.

Failover is the router's other job: a proxy attempt that cannot reach the
owner marks it unreachable and *waits* (bounded by ``failover_timeout``)
for the supervisor to restart and re-register it, then sends the same
request again.  An append with an ``Idempotency-Key`` therefore lands
exactly once across a worker crash, and one without a key at least once.

Control-plane routes served locally (never proxied):

* ``POST /fleet/register`` / ``POST /fleet/heartbeat`` — worker agents;
* ``GET /fleet/workers`` — per-worker registry view (pid, url, liveness,
  heartbeat age, restarts);
* ``GET /fleet/resolve?project=<name>`` — the ring's answer for a project;
* ``GET /service/stats`` — fleet-wide aggregation of every worker's stats;
* ``GET /healthz`` — router liveness plus registered/alive worker counts;
* ``GET/PUT/DELETE /service/policy[/<selector>]`` — the fleet's QoS policy
  table (when the router was built with one; see below).

When the fleet runs with QoS (``repro serve --workers N --qos[-policy]``),
admission control lives *here*: the router holds the single policy view and
per-tenant token buckets, answers over-limit requests with ``429`` +
``Retry-After`` before any proxying, and its counters are the fleet-wide
admission truth (workers run with admission off and trust the router).
Relayed answers reach the client as the worker sent them, so a
worker-side header (a ``Retry-After`` on a 429 or 503) arrives unchanged,
and so does a router-side denial's own ``Retry-After``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Callable, TypeVar
from urllib.parse import urlencode

from ..errors import FleetError, TransportError
from ..qos import AdmissionController, PolicyStore
from ..service.app import (
    enforce_admission,
    register_policy_routes,
    register_telemetry_route,
    request_header,
    validate_project_name,
)
from ..webapp.framework import (
    HttpError,
    JsonResponse,
    Request,
    Response,
    StreamingResponse,
    WebApp,
)
from ..webapp.http1 import end_to_end
from .supervisor import FleetSupervisor
from .transport import HttpClient

T = TypeVar("T")

#: The request fields a proxied request carries to its worker, by their
#: lower-case names; the router writes the rest of the head itself.
_FORWARDED = {"content-type": "Content-Type", "idempotency-key": "Idempotency-Key"}

#: Seconds a proxy attempt will wait for a crashed owner to come back.
DEFAULT_FAILOVER_TIMEOUT = 20.0
#: Seconds one proxied request may take on its worker.
PROXY_TIMEOUT = 60.0

#: Failover retry backoff: first retry after ``_BACKOFF_BASE`` seconds,
#: doubling (with jitter) up to ``_BACKOFF_CAP`` per attempt.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 1.0

class FleetRouter:
    """Routes requests across a :class:`FleetSupervisor`'s workers.

    Implements the same ``handle(Request) -> Response`` surface as
    :class:`~repro.webapp.framework.WebApp`, so it drops straight into
    :func:`repro.service.server.make_server`.
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        *,
        failover_timeout: float = DEFAULT_FAILOVER_TIMEOUT,
        policies: PolicyStore | None = None,
        admission: AdmissionController | None = None,
    ):
        self.supervisor = supervisor
        self.failover_timeout = failover_timeout
        #: QoS lives at the front door: the router holds the one policy
        #: view (and per-tenant buckets) for the whole fleet, denying
        #: over-limit requests before they ever reach a worker — workers
        #: run with admission off and trust the router.  A worker crash
        #: therefore cannot reset admission counters; the chaos suite
        #: asserts they stay monotone across a SIGKILL + restart.
        self.policies = policies
        self.admission = admission
        self._clients: dict[str, HttpClient] = {}
        self._clients_lock = threading.Lock()
        self._control = self._build_control_app()

    # ------------------------------------------------------------- dispatch
    def handle(self, request: Request) -> Response:
        try:
            return self._dispatch(request)
        except HttpError as exc:
            # Raised by routing itself (project-name validation, admission
            # denials) — proxied handlers report their own errors in-band.
            # Mirror WebApp.handle: structured detail and headers survive,
            # which is how a router-side 429 carries Retry-After.
            payload: dict = {"error": str(exc)}
            if exc.detail is not None:
                payload["detail"] = exc.detail
            return JsonResponse(payload, status=exc.status, headers=exc.headers)

    def _dispatch(self, request: Request) -> Response:
        segments = list(filter(None, request.path.split("/")))
        if len(segments) >= 2 and segments[0] == "projects":
            name, subpath = validate_project_name(segments[1]), tuple(segments[2:])
            enforce_admission(self.admission, name, subpath, request)
            if subpath == ("tail",):
                return self._proxy_stream(self.supervisor.route(name), request)
            annotate = None
            if subpath == ("stats",):
                worker_id = self.supervisor.route(name)

                def annotate(payload: dict, worker_id=worker_id) -> dict:
                    payload["worker"] = worker_id
                    if self.admission is not None:
                        # The worker ran with admission off; the router's
                        # view is the authoritative one for this tenant.
                        payload["qos"] = self.admission.snapshot(name)
                    return payload

            return self._proxy(self.supervisor.route(name), request, annotate=annotate)
        if segments and segments[0] == "jobs":
            try:
                worker_id = self.supervisor.any_worker()
            except FleetError as exc:
                return self._unavailable(str(exc))
            if len(segments) == 3 and segments[2] == "tail":
                return self._proxy_stream(worker_id, request)
            return self._proxy(worker_id, request)
        return self._control.handle(request)

    def close(self) -> None:
        with self._clients_lock:
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()
        if self.policies is not None:
            self.policies.close()

    @staticmethod
    def _unavailable(message: str) -> Response:
        """A 503 that tells the client when retrying is worth it: after
        roughly one backoff cap, the supervisor has had a chance to restart
        and re-register the worker."""
        return JsonResponse(
            {"error": message},
            status=503,
            headers={"Retry-After": f"{_BACKOFF_CAP:.3f}"},
        )

    # ---------------------------------------------------------------- proxy
    def _client_for(self, url: str) -> HttpClient:
        with self._clients_lock:
            client = self._clients.get(url)
            if client is None:
                client = HttpClient(url, timeout=PROXY_TIMEOUT)
                self._clients[url] = client
            return client

    def _with_failover(self, worker_id: str, attempt: Callable[[HttpClient], T]) -> "T | Response":
        """Run ``attempt`` against the worker's client, riding out a restart.

        A :class:`TransportError` means the owner vanished (crash, restart):
        flag it so ``url_for`` blocks on re-registration instead of handing
        back the same dead url, then retry — with exponential backoff and
        jitter, so a hundred concurrent requests do not hammer the reborn
        worker in lockstep — until the failover budget runs out and the
        client gets a 503 with a Retry-After instead of blocking forever.
        A retried append lands exactly once under an ``Idempotency-Key``
        (:meth:`_proxy` forwards it) and at-least-once without one.
        """
        deadline = time.monotonic() + self.failover_timeout
        retries = 0
        while True:
            try:
                worker_url = self.supervisor.url_for(
                    worker_id, wait_timeout=max(0.0, deadline - time.monotonic())
                )
            except FleetError as exc:
                return self._unavailable(f"worker {worker_id!r} unavailable: {exc}")
            try:
                return attempt(self._client_for(worker_url))
            except TransportError as exc:
                self.supervisor.note_unreachable(worker_id)
                now = time.monotonic()
                if now >= deadline:
                    return self._unavailable(f"worker {worker_id!r} unreachable: {exc}")
                delay = min(_BACKOFF_BASE * (2**retries), _BACKOFF_CAP)
                delay *= 0.5 + random.random() / 2  # jitter in [0.5x, 1.0x)
                retries += 1
                time.sleep(min(delay, max(deadline - now, 0.0)))

    def _proxy(
        self,
        worker_id: str,
        request: Request,
        *,
        annotate: Callable[[dict], dict] | None = None,
    ) -> Response:
        url = request.path
        if request.query:
            url += "?" + urlencode(request.query)
        headers = {"Content-Type": "application/json"}
        for name, value in request.headers.items():
            forwarded = _FORWARDED.get(name.lower())
            if forwarded is not None:
                headers[forwarded] = value
        response = self._with_failover(
            worker_id,
            lambda client: client.request(
                request.method, url, body=request.body, headers=headers
            ),
        )
        if annotate is not None and response.ok:
            try:
                payload = annotate(json.loads(response.body))
            except (json.JSONDecodeError, TypeError):  # pragma: no cover
                return response
            return JsonResponse(payload, status=response.status)
        return response

    def _proxy_stream(self, worker_id: str, request: Request) -> Response | StreamingResponse:
        """Relay a streaming route (an SSE tail) without buffering it.

        Failover covers the *initial connect* only: once bytes are
        flowing, a worker crash simply ends the relayed stream — the
        subscriber reconnects (through the router, which by then routes
        to the restarted placement) presenting its ``Last-Event-ID``,
        and the relational backfill makes the hand-off lossless.
        Retrying mid-stream inside the router would instead risk
        re-framing rows the client already consumed.
        """
        query = urlencode(request.query)
        url = request.path + (f"?{query}" if query else "")
        headers: dict[str, str] = {}
        last_id = request_header(request, "Last-Event-ID")
        if last_id is not None:
            headers["Last-Event-ID"] = last_id
        upstream = self._with_failover(
            worker_id, lambda client: client.stream(url, headers=headers)
        )
        if isinstance(upstream, Response):
            return upstream  # the failover budget ran out: a 503
        passthrough = end_to_end(upstream.headers)
        if not upstream.ok:
            # Upstream refused the subscription (404 unknown job, 503
            # backpressure + Retry-After): a small buffered answer.
            return Response(body=upstream.read(), status=upstream.status, headers=passthrough)

        def relay():
            try:
                yield from upstream.chunks()
            except TransportError:
                # Worker died mid-stream; end the relay cleanly so the
                # subscriber notices EOF and reconnects with its cursor.
                return

        return StreamingResponse(relay(), status=upstream.status, headers=passthrough)

    def _fan_in(self, path: str) -> tuple[dict[str, dict], list[dict]]:
        """``GET path`` from every registered, live worker.

        Returns the per-worker blocks — a worker that is down or
        unreachable contributes its registry view plus an ``error`` instead
        of failing the aggregation — and the answers that did arrive, in
        worker order, for the caller to sum.
        """
        per_worker: dict[str, dict] = {}
        answers: list[dict] = []
        for view in self.supervisor.worker_views():
            if not (view["registered"] and view["alive"]):
                per_worker[view["id"]] = {"error": "worker not registered", **view}
                continue
            try:
                answer = self._client_for(view["url"]).get_json(path)
            except TransportError as exc:
                per_worker[view["id"]] = {"error": str(exc), **view}
                continue
            per_worker[view["id"]] = answer
            answers.append(answer)
        return per_worker, answers

    # -------------------------------------------------------------- control
    def _build_control_app(self) -> WebApp:
        app = WebApp("fleet-router")
        supervisor = self.supervisor

        if self.policies is not None:
            # One policy table for the whole fleet, administered here: the
            # same GET/PUT/DELETE surface (and structured 409 conflicts) as
            # the single-process service.
            register_policy_routes(app, lambda: self.policies, lambda: self.admission)

        def _body(request: Request) -> dict:
            payload = request.get_json()
            if not isinstance(payload, dict):
                raise HttpError(400, "request body must be a JSON object")
            return payload

        @app.route("/healthz")
        def healthz(_request: Request):
            summary = supervisor.summary()
            return JsonResponse({"status": "ok", "role": "router", "fleet": summary})

        @app.route("/fleet/register", methods=("POST",))
        def register(request: Request):
            payload = _body(request)
            try:
                view = supervisor.on_register(
                    str(payload.get("worker_id", "")),
                    str(payload.get("url", "")),
                    int(payload.get("pid", 0)),
                )
            except FleetError as exc:
                raise HttpError(409, str(exc)) from exc
            return JsonResponse({"worker": view})

        @app.route("/fleet/heartbeat", methods=("POST",))
        def heartbeat(request: Request):
            payload = _body(request)
            try:
                view = supervisor.on_heartbeat(
                    str(payload.get("worker_id", "")), int(payload.get("pid", 0))
                )
            except FleetError as exc:
                raise HttpError(409, str(exc)) from exc
            return JsonResponse({"worker": view})

        @app.route("/fleet/workers")
        def workers(_request: Request):
            return JsonResponse(
                {"fleet": supervisor.summary(), "workers": supervisor.worker_views()}
            )

        @app.route("/fleet/resolve")
        def resolve(request: Request):
            project = request.arg("project")
            if not project:
                raise HttpError(400, "the 'project' query parameter is required")
            project = validate_project_name(project)
            try:
                worker_id = supervisor.route(project)
            except FleetError as exc:
                raise HttpError(503, str(exc)) from exc
            try:
                url = supervisor.url_for(worker_id)
            except FleetError:
                url = None
            return JsonResponse({"project": project, "worker": worker_id, "url": url})

        @app.route("/service/stats")
        def service_stats(_request: Request):
            per_worker, answers = self._fan_in("/service/stats")
            pool_totals: dict[str, int] = {}
            for stats in answers:
                for key, value in stats.get("pool", {}).items():
                    pool_totals[key] = pool_totals.get(key, 0) + int(value)
            payload = {
                "role": "router",
                "fleet": supervisor.summary(),
                "workers": per_worker,
                "open_shards": sorted(
                    name for stats in answers for name in stats.get("open_shards", [])
                ),
                "capacity": sum(int(stats.get("capacity", 0)) for stats in answers),
                "pool": pool_totals,
                # The job store is host-level and shared; every worker reads
                # the same SQLite file, so the first answer covers all.
                "jobs": (answers[0].get("jobs") if answers else None) or {},
            }
            if self.admission is not None:
                # Admission happens here, not on workers, so the router's
                # own counters ARE the fleet-wide admission view.
                payload["qos"] = self.admission.snapshot()
            return JsonResponse(payload)

        def _telemetry_fanin() -> dict:
            """One fleet-wide telemetry snapshot: counters and gauges are
            summed across workers (they are cumulative, so sums stay
            cumulative and consumers difference them for rates);
            histograms stay per-worker — percentiles do not add."""
            per_worker, answers = self._fan_in("/service/telemetry")
            counters: dict[str, float] = {}
            gauges: dict[str, float] = {}
            tail_totals = {
                "streams": 0,
                "subscribers": 0,
                "subscribed_total": 0,
                "evicted_total": 0,
            }
            for snap in answers:
                for key, value in snap.get("counters", {}).items():
                    counters[key] = counters.get(key, 0) + value
                for key, value in snap.get("gauges", {}).items():
                    gauges[key] = gauges.get(key, 0) + value
                tail = snap.get("tail", {})
                for key in tail_totals:
                    tail_totals[key] += int(tail.get(key, 0))
            payload = {
                "role": "router",
                "fleet": supervisor.summary(),
                "workers": per_worker,
                "counters": counters,
                "gauges": gauges,
                "tail": tail_totals,
                # Shared host-level job store; one worker's view covers the
                # fleet (same reasoning as /service/stats).
                "jobs": (answers[0].get("jobs") if answers else None) or {},
            }
            if self.admission is not None:
                payload["qos"] = self.admission.snapshot()
            return payload

        register_telemetry_route(app, _telemetry_fanin)
        return app
