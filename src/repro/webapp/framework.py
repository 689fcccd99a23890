"""A minimal in-process web framework (Flask substitute).

Provides exactly the surface the feedback application needs:

* :class:`Router` / :class:`WebApp` — decorator-based route registration
  with ``<param>`` path segments and per-method dispatch,
* :class:`Request` / :class:`Response` / :class:`JsonResponse` — typed
  request/response objects with JSON helpers,
* :class:`TestClient` — drives the app without sockets, which keeps the
  examples, tests and benchmarks hermetic and fast.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping
from urllib.parse import parse_qs, urlsplit

from ..errors import RouteNotFoundError, WebAppError


@dataclass
class Request:
    """An HTTP-like request delivered to a handler."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    path_params: dict[str, str] = field(default_factory=dict)

    def get_json(self) -> Any:
        """Parse the body as JSON (empty body yields an empty dict)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise WebAppError(f"request body is not valid JSON: {exc}") from exc

    def arg(self, name: str, default: str | None = None) -> str | None:
        return self.query.get(name, default)


@dataclass
class Response:
    """An HTTP-like response returned by a handler.

    ``body`` is text, or bytes that are already what goes on the wire (a
    pre-encoded JSON document, a relayed upstream payload) — the transport
    sends those untouched.
    """

    body: str | bytes = ""
    status: int = 200
    headers: dict[str, str] = field(default_factory=lambda: {"Content-Type": "text/html"})

    def json(self) -> Any:
        return json.loads(self.body)

    @property
    def text(self) -> str:
        """The body as text, whichever way it is held (for messages)."""
        body = self.body
        return body.decode("utf-8", "replace") if isinstance(body, bytes) else body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class JsonResponse(Response):
    """Response whose body is JSON-encoded from a Python object."""

    def __init__(self, payload: Any, status: int = 200, headers: Mapping[str, str] | None = None):
        merged = {"Content-Type": "application/json"}
        if headers:
            merged.update(headers)
        super().__init__(body=json.dumps(payload), status=status, headers=merged)


class StreamingResponse(Response):
    """A response whose body is produced incrementally by an iterator.

    ``chunks`` yields ``str`` (or ``bytes``) fragments that the transport
    writes — and flushes — one at a time, which is what lets the stdlib
    server hold a long-lived connection (an SSE tail, a telemetry feed)
    without buffering the whole body.  ``body`` stays empty; the socket
    bridge in :mod:`repro.service.server` sends these with chunked
    transfer encoding, and :class:`TestClient` iterates them in-process.

    The iterator's ``close()`` is the disconnect signal: the transport
    calls it when the client goes away (or the guard in
    :meth:`SSEStream.events` trips), so handlers can release their
    subscription in a ``finally`` block.
    """

    def __init__(
        self,
        chunks: Iterable[str | bytes],
        *,
        status: int = 200,
        headers: Mapping[str, str] | None = None,
        content_type: str = "text/event-stream",
    ):
        merged = {"Content-Type": content_type, "Cache-Control": "no-cache"}
        if headers:
            merged.update(headers)
        super().__init__(body="", status=status, headers=merged)
        self.chunks = iter(chunks)

    def close(self) -> None:
        close = getattr(self.chunks, "close", None)
        if close is not None:
            close()


def sse_event(
    data: Any,
    *,
    event: str | None = None,
    id: int | str | None = None,  # noqa: A002 - SSE field name
) -> str:
    """Format one server-sent event (``event:``/``id:``/``data:`` + blank line).

    ``data`` that is not already a string is JSON-encoded; multi-line data
    is split into one ``data:`` line per line, per the SSE spec.  The
    ``id`` becomes the browser-standard ``Last-Event-ID`` a reconnecting
    client presents — FlorDB tails use the row's ``logs.seq`` (or a job
    event's ``seq``) so a resumed stream starts exactly after the last
    delivered row.
    """
    text = data if isinstance(data, str) else json.dumps(data)
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    if id is not None:
        lines.append(f"id: {id}")
    for part in (text.split("\n") if text else [""]):
        lines.append(f"data: {part}")
    return "\n".join(lines) + "\n\n"


def sse_comment(text: str = "keepalive") -> str:
    """A ``: comment`` frame — ignored by SSE parsers, keeps the socket warm."""
    return f": {text}\n\n"


@dataclass(frozen=True)
class SSEEvent:
    """One parsed server-sent event."""

    data: str
    event: str | None = None
    id: str | None = None

    def json(self) -> Any:
        return json.loads(self.data)


def iter_sse_events(chunks: Iterable[str | bytes]) -> Iterator[SSEEvent]:
    """Parse a chunk stream into :class:`SSEEvent` frames.

    Chunk boundaries need not align with event boundaries (a socket read
    may split an event, or deliver several at once); comments and blank
    keepalive frames are skipped.
    """
    buffer = ""
    for chunk in chunks:
        if isinstance(chunk, bytes):
            chunk = chunk.decode("utf-8")
        buffer += chunk
        while "\n\n" in buffer:
            frame, buffer = buffer.split("\n\n", 1)
            event = _parse_sse_frame(frame)
            if event is not None:
                yield event


def _parse_sse_frame(frame: str) -> SSEEvent | None:
    event_type: str | None = None
    event_id: str | None = None
    data_lines: list[str] = []
    for line in frame.split("\n"):
        if not line or line.startswith(":"):
            continue
        field_name, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field_name == "event":
            event_type = value
        elif field_name == "id":
            event_id = value
        elif field_name == "data":
            data_lines.append(value)
    if event_type is None and event_id is None and not data_lines:
        return None  # pure comment / empty frame
    return SSEEvent(data="\n".join(data_lines), event=event_type, id=event_id)


class SSEStream:
    """Iterate a streaming response's SSE events with a stop guard.

    Wraps any chunk iterator (an in-process :class:`StreamingResponse`
    body, or a socket read loop) and exposes :meth:`events`, which stops
    after ``max_events`` events or ``timeout`` seconds — whichever comes
    first — then closes the underlying stream.  The timeout is checked
    between chunks, so it is only as granular as the producer's keepalive
    cadence; FlorDB's tail routes take a ``keepalive`` knob precisely so
    tests can bound every wait.
    """

    def __init__(self, chunks: Iterable[str | bytes], *, headers: Mapping[str, str] | None = None, status: int = 200):
        self._chunks = chunks
        self.headers = dict(headers or {})
        self.status = status
        self.closed = False

    def events(
        self, *, max_events: int | None = None, timeout: float | None = None
    ) -> Iterator[SSEEvent]:
        deadline = None if timeout is None else time.monotonic() + timeout
        produced = 0
        try:
            for event in iter_sse_events(self._guarded_chunks(deadline)):
                yield event
                produced += 1
                if max_events is not None and produced >= max_events:
                    return
        finally:
            self.close()

    def collect(
        self, *, max_events: int | None = None, timeout: float | None = None
    ) -> list[SSEEvent]:
        return list(self.events(max_events=max_events, timeout=timeout))

    def _guarded_chunks(self, deadline: float | None) -> Iterator[str | bytes]:
        for chunk in self._chunks:
            yield chunk
            if deadline is not None and time.monotonic() >= deadline:
                return

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        close = getattr(self._chunks, "close", None)
        if close is not None:
            try:
                close()
            except (ValueError, RuntimeError):  # pragma: no cover - generator mid-run
                pass

    def __enter__(self) -> "SSEStream":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class HttpError(WebAppError):
    """Raise inside a handler to produce a non-200 response.

    ``detail`` (a JSON-serializable object) is merged into the error body so
    handlers can return structured, machine-readable errors — e.g. a policy
    conflict's ``{"code": "shadowed", "by": ...}`` — and ``headers`` are
    added to the response, which is how ``429`` carries ``Retry-After``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        detail: Any = None,
        headers: Mapping[str, str] | None = None,
    ):
        self.status = status
        self.detail = detail
        self.headers = dict(headers) if headers else {}
        super().__init__(message)


@dataclass(frozen=True)
class _Route:
    method: str
    segments: tuple[str, ...]
    handler: Callable[..., Any]

    def match(self, method: str, path_segments: tuple[str, ...]) -> dict[str, str] | None:
        if method != self.method or len(path_segments) != len(self.segments):
            return None
        params: dict[str, str] = {}
        for pattern, actual in zip(self.segments, path_segments):
            if pattern.startswith("<") and pattern.endswith(">"):
                params[pattern[1:-1]] = actual
            elif pattern != actual:
                return None
        return params


def _split_path(path: str) -> tuple[str, ...]:
    return tuple(segment for segment in path.strip("/").split("/") if segment) or ("",)


class Router:
    """Registers routes and dispatches requests to handlers."""

    def __init__(self) -> None:
        self._routes: list[_Route] = []

    def add(self, path: str, handler: Callable[..., Any], methods: tuple[str, ...] = ("GET",)) -> None:
        for method in methods:
            self._routes.append(_Route(method.upper(), _split_path(path), handler))

    def resolve(self, method: str, path: str) -> tuple[Callable[..., Any], dict[str, str]]:
        segments = _split_path(path)
        for route in self._routes:
            params = route.match(method.upper(), segments)
            if params is not None:
                return route.handler, params
        raise RouteNotFoundError(path, method)

    def routes(self) -> list[tuple[str, str]]:
        return sorted({(r.method, "/" + "/".join(r.segments).strip("/")) for r in self._routes})


class WebApp:
    """A small application object with Flask-like ``route`` decorators."""

    def __init__(self, name: str = "app"):
        self.name = name
        self.router = Router()
        self.templates: dict[str, str] = {}

    # ----------------------------------------------------------- registration
    def route(self, path: str, methods: tuple[str, ...] = ("GET",)):
        def decorator(handler: Callable[..., Any]) -> Callable[..., Any]:
            self.router.add(path, handler, methods)
            return handler

        return decorator

    def register_template(self, name: str, content: str) -> None:
        self.templates[name] = content

    def render_template(self, template_name: str, **context: Any) -> str:
        """Very small ``{{ placeholder }}`` substitution renderer."""
        if template_name not in self.templates:
            raise WebAppError(f"unknown template {template_name!r}")
        rendered = self.templates[template_name]
        for key, value in context.items():
            rendered = rendered.replace("{{ " + key + " }}", str(value))
            rendered = rendered.replace("{{" + key + "}}", str(value))
        return rendered

    # -------------------------------------------------------------- dispatch
    def handle(self, request: Request) -> Response:
        try:
            handler, params = self.router.resolve(request.method, request.path)
        except RouteNotFoundError as exc:
            return JsonResponse({"error": str(exc)}, status=404)
        request.path_params = params
        try:
            result = handler(request, **params) if params else handler(request)
        except HttpError as exc:
            payload: dict[str, Any] = {"error": str(exc)}
            if exc.detail is not None:
                payload["detail"] = exc.detail
            return JsonResponse(payload, status=exc.status, headers=exc.headers)
        return self._normalize(result)

    @staticmethod
    def _normalize(result: Any) -> Response:
        if isinstance(result, Response):
            return result
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
            payload, status = result
            if isinstance(payload, Response):
                payload.status = status
                return payload
            if isinstance(payload, str):
                return Response(body=payload, status=status)
            return JsonResponse(payload, status=status)
        if isinstance(result, str):
            return Response(body=result)
        return JsonResponse(result)


class _StreamingBody:
    """Adapt a :class:`StreamingResponse` to the chunk-iterable-with-close
    shape :class:`SSEStream` consumes, delegating ``close`` to the full
    response (mirroring what the socket server does in its ``finally``)."""

    def __init__(self, response: StreamingResponse):
        self._response = response

    def __iter__(self) -> Iterator[str | bytes]:
        return self._response.chunks

    def close(self) -> None:
        self._response.close()


class TestClient:
    """Drive a :class:`WebApp` in-process (no sockets, no threads)."""

    #: Not a pytest test class despite the name (same convention Flask uses).
    __test__ = False

    def __init__(self, app: WebApp):
        self.app = app

    def _request(
        self,
        method: str,
        url: str,
        json_body: Any = None,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        parts = urlsplit(url)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        request = Request(
            method=method.upper(),
            path=parts.path or "/",
            query=query,
            headers=dict(headers or {}),
            body=body,
        )
        return self.app.handle(request)

    def get(self, url: str, headers: Mapping[str, str] | None = None) -> Response:
        return self._request("GET", url, headers=headers)

    def sse(self, url: str, headers: Mapping[str, str] | None = None) -> SSEStream:
        """GET a streaming route and wrap its body for guarded iteration.

        The returned :class:`SSEStream` iterates events in-process (no
        sockets, no threads) with ``max_events``/``timeout`` stop guards,
        which is how tail routes are unit-tested.  Non-streaming responses
        (an error JSON body, say) still wrap cleanly — their whole body is
        treated as one chunk — so callers can inspect ``status``.
        """
        response = self._request("GET", url, headers=headers)
        if isinstance(response, StreamingResponse):
            # Wrap the whole response, not just its chunk iterator: closing
            # must run the response's close() — which handlers may extend
            # with cleanup beyond the generator (releasing a tail broker
            # subscription) that a never-started generator's skipped
            # ``finally`` would otherwise leak.
            return SSEStream(
                _StreamingBody(response), headers=response.headers, status=response.status
            )
        return SSEStream(iter([response.body]), headers=response.headers, status=response.status)

    def post(self, url: str, json_body: Any = None, body: bytes = b"") -> Response:
        return self._request("POST", url, json_body=json_body, body=body)

    def put(self, url: str, json_body: Any = None, body: bytes = b"") -> Response:
        return self._request("PUT", url, json_body=json_body, body=body)

    def delete(self, url: str) -> Response:
        return self._request("DELETE", url)
