"""Keep-alive HTTP client for fleet peers (and load generators).

Two call sites need the same thing:

* the router proxies every data-plane request to a worker, and paying a
  TCP handshake per proxied request would double the per-request cost the
  fleet exists to shrink;
* :class:`~repro.workloads.ServiceWorkload` drives ``repro serve`` over
  real sockets in T8/T14, and a client that reconnects per request
  measures connection setup, not server throughput.

:class:`HttpClient` keeps one persistent :class:`http.client.HTTPConnection`
per ``(thread, host:port)`` in thread-local storage — each workload thread
(or long-lived router handler thread) reuses its own connection for the
whole run, which is exactly the keep-alive behaviour ``ThreadingHTTPServer``
with ``protocol_version = "HTTP/1.1"`` supports on the other side.

A request that fails on a cached connection (the peer restarted, an idle
keep-alive socket timed out) is retried once on a fresh connection; a
failure on the fresh connection raises :class:`~repro.errors.TransportError`
so callers can run their own failover (the router waits for the worker to
re-register, then retries).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Any, Mapping
from urllib.parse import urlsplit

from ..errors import TransportError
from ..webapp.framework import Response, SSEStream

#: Connection-level failures worth one retry on a fresh socket.
_RETRYABLE = (
    http.client.HTTPException,
    ConnectionError,
    socket.timeout,
    BrokenPipeError,
    OSError,
)


class HttpClient:
    """JSON-over-HTTP client with per-thread persistent connections.

    ``get``/``post`` mirror :class:`~repro.webapp.framework.TestClient`, so
    anything written against the in-process client (``ServiceWorkload``,
    tests) drives a real server unchanged.  Non-2xx responses are returned,
    not raised — status handling stays with the caller, like TestClient.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise TransportError(f"expected an http://host:port base url, got {base_url!r}")
        self.base_url = f"http://{parts.netloc}"
        self.netloc = parts.netloc
        self.timeout = timeout
        self._local = threading.local()
        # Every connection ever opened, for close(): thread-locals are not
        # enumerable from the closing thread.
        self._all: list[http.client.HTTPConnection] = []
        self._all_lock = threading.Lock()

    # ---------------------------------------------------------- connections
    def _connection(self, *, fresh: bool = False) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if fresh and conn is not None:
            conn.close()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(self.netloc, timeout=self.timeout)
            self._local.conn = conn
            with self._all_lock:
                self._all.append(conn)
        return conn

    def close(self) -> None:
        """Close every connection this client ever opened (any thread's)."""
        with self._all_lock:
            conns, self._all = self._all, []
        for conn in conns:
            conn.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- requests
    def request(
        self,
        method: str,
        url: str,
        *,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        """One round trip; retries once on a stale keep-alive connection."""
        send_headers = dict(headers or {})
        send_headers.setdefault("Content-Type", "application/json")
        for attempt in (0, 1):
            conn = self._connection(fresh=attempt > 0)
            try:
                conn.request(method, url, body=body or None, headers=send_headers)
                raw = conn.getresponse()
                # The payload stays bytes: a relayed read is written to the
                # next socket as it arrived, not transcoded on the way.
                return Response(
                    body=raw.read(),
                    status=raw.status,
                    headers={k: v for k, v in raw.getheaders()},
                )
            except _RETRYABLE as exc:
                # A dead keep-alive socket surfaces only when reused; give
                # the request one fresh connection before declaring the peer
                # unreachable.
                if attempt == 1:
                    raise TransportError(
                        f"{method} http://{self.netloc}{url} failed: {exc}"
                    ) from exc

    def stream(
        self, url: str, *, headers: Mapping[str, str] | None = None
    ) -> "StreamedResponse":
        """GET a streaming route (an SSE tail) without buffering the body.

        Unlike :meth:`request`, the connection is *dedicated*: a stream
        holds its socket for the life of the subscription, so it must not
        poison the thread-local keep-alive connection other requests
        reuse.  Connection failures raise :class:`TransportError`
        immediately — resuming a broken stream is the caller's job (the
        cursor in ``Last-Event-ID`` makes it lossless).
        """
        conn = http.client.HTTPConnection(self.netloc, timeout=self.timeout)
        with self._all_lock:
            self._all.append(conn)
        try:
            conn.request("GET", url, headers=dict(headers or {}))
            raw = conn.getresponse()
        except _RETRYABLE as exc:
            conn.close()
            raise TransportError(
                f"GET http://{self.netloc}{url} failed: {exc}"
            ) from exc
        return StreamedResponse(conn, raw)

    # TestClient-compatible surface -----------------------------------------
    def get(self, url: str) -> Response:
        return self.request("GET", url)

    def post(self, url: str, json_body: Any = None, body: bytes = b"") -> Response:
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        return self.request("POST", url, body=body)

    def put(self, url: str, json_body: Any = None, body: bytes = b"") -> Response:
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        return self.request("PUT", url, body=body)

    def delete(self, url: str) -> Response:
        return self.request("DELETE", url)

    def get_json(self, url: str) -> Any:
        """GET expecting a 2xx JSON body; raises TransportError otherwise."""
        response = self.get(url)
        if not response.ok:
            raise TransportError(
                f"GET http://{self.netloc}{url} returned {response.status}: "
                f"{response.text[:200]}"
            )
        return response.json()

    def post_json(self, url: str, payload: Any = None) -> Any:
        """POST expecting a 2xx JSON body; raises TransportError otherwise."""
        response = self.post(url, json_body=payload if payload is not None else {})
        if not response.ok:
            raise TransportError(
                f"POST http://{self.netloc}{url} returned {response.status}: "
                f"{response.text[:200]}"
            )
        return response.json()


class StreamedResponse:
    """An in-flight streaming response on its own dedicated connection.

    ``chunks()`` yields decoded-transfer-encoding bytes as they arrive
    (``http.client`` strips the chunked framing; ``read1`` returns per
    network read instead of blocking for a full buffer, which is what
    keeps SSE latency at one round trip).  A connection failure mid-body
    raises :class:`~repro.errors.TransportError` from ``chunks()`` —
    stream consumers resume by reconnecting with their cursor.
    """

    def __init__(self, conn: http.client.HTTPConnection, raw: http.client.HTTPResponse):
        self._conn = conn
        self._raw = raw
        self.status = raw.status
        self.headers = {k: v for k, v in raw.getheaders()}

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def read(self) -> bytes:
        """Drain the remaining body (for non-200s that are really buffered)."""
        try:
            return self._raw.read()
        finally:
            self.close()

    def chunks(self, size: int = 8192):
        try:
            while True:
                try:
                    data = self._raw.read1(size)
                except _RETRYABLE as exc:
                    raise TransportError(f"stream interrupted: {exc}") from exc
                if not data:
                    return
                yield data
        finally:
            self.close()

    def sse(self) -> SSEStream:
        """Wrap the body in an :class:`SSEStream` for event-level iteration."""
        return SSEStream(self.chunks(), headers=self.headers, status=self.status)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "StreamedResponse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
