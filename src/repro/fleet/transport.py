"""Keep-alive HTTP client for fleet peers (and load generators).

Two call sites need the same thing:

* the router proxies every data-plane request to a worker, and paying a
  TCP handshake per proxied request would double the per-request cost the
  fleet exists to shrink;
* :class:`~repro.workloads.ServiceWorkload` drives ``repro serve`` over
  real sockets in T8/T14, and a client that reconnects per request
  measures connection setup, not server throughput.

:class:`HttpClient` keeps one raw keep-alive socket per ``(thread,
host:port)`` in thread-local storage.  A request leaves in one write, the
answer's head is read by :mod:`repro.webapp.http1` (the server's codec),
and one reader, :func:`_body`, serves ``request`` and ``stream`` for
``Content-Length``, chunked and close-delimited bodies.

A request that fails on a cached connection (the peer restarted, an idle
keep-alive socket timed out) is retried once on a fresh connection; a
failure on the fresh connection raises :class:`~repro.errors.TransportError`
so callers can run their own failover (the router waits for the worker to
re-register, then retries).
"""

from __future__ import annotations

import json
import socket
import threading
import weakref
from typing import Any, BinaryIO, Iterator, Mapping
from urllib.parse import urlsplit

from ..errors import TransportError
from ..webapp.framework import Response, SSEStream
from ..webapp.http1 import Headers, read_headers, read_line

#: Worth one retry on a fresh socket: socket errors, unframeable answers.
_RETRYABLE = (OSError, ValueError)


class _Connection:
    """One socket to a peer, with Nagle off, and the buffered reader over it."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.rfile = sock, sock.makefile("rb")

    def exchange(
        self, method: str, url: str, body: bytes, headers: Mapping[str, str]
    ) -> tuple[int, Headers, bool]:
        """One request, one write; the answer's status, head and reusability."""
        lines = [f"{method} {url} HTTP/1.1", f"Content-Length: {len(body)}"]
        lines.extend(f"{key}: {value}" for key, value in headers.items())
        self.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        status_line = read_line(self.rfile)  # b"" when a kept socket went stale
        version, _, rest = status_line.decode("latin-1").partition(" ")
        if not (version.startswith("HTTP/1.") and rest[:3].isdigit()):
            raise ConnectionError(f"no HTTP/1.x status line: {status_line!r}")
        head = read_headers(self.rfile)
        framed = (head.get("Content-Length") or head.get("Transfer-Encoding")) is not None
        return int(rest[:3]), head, framed and head.get("Connection", "").lower() != "close"

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    __del__ = close  # a thread's connection dies with the thread


def _body(rfile: BinaryIO, head: Headers) -> Iterator[bytes]:
    """The body as it arrives: chunk by chunk when chunked (an SSE frame is
    one chunk), else ``Content-Length`` bytes, else bytes until the close."""
    if head.get("Transfer-Encoding", "").lower() == "chunked":
        while size := int(read_line(rfile).split(b";")[0], 16):
            data = rfile.read(size + 2)
            if data[size:] != b"\r\n":
                raise ConnectionError("chunk cut short")
            yield data[:size]
        while read_line(rfile) not in (b"\r\n", b"\n", b""):
            pass  # trailer fields, unread
        return
    length = head.get("Content-Length")
    if length is None:
        yield from iter(lambda: rfile.read1(65536), b"")
    elif not length.isdigit() or len(data := rfile.read(int(length))) < int(length):
        raise ConnectionError(f"body not of Content-Length {length!r}")
    else:
        yield data


class HttpClient:
    """JSON-over-HTTP client with per-thread persistent connections.

    ``get``/``post`` mirror :class:`~repro.webapp.framework.TestClient`, so
    anything written against the in-process client (``ServiceWorkload``,
    tests) drives a real server unchanged.  Non-2xx responses are returned,
    not raised — status handling stays with the caller, like TestClient.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise TransportError(f"expected an http://host:port base url, got {base_url!r}")
        self.base_url = f"http://{parts.netloc}"
        self.netloc = parts.netloc
        self.address = (parts.hostname, parts.port or 80)
        self.timeout = timeout
        self._local = threading.local()
        # For close(): thread-locals are not enumerable from another thread.
        self._open: weakref.WeakSet[_Connection] = weakref.WeakSet()
        self._open_lock = threading.Lock()

    # ---------------------------------------------------------- connections
    def _connect(self) -> _Connection:
        conn = _Connection(socket.create_connection(self.address, self.timeout))
        with self._open_lock:
            self._open.add(conn)
        return conn

    def _release(self) -> None:
        """Close this thread's connection; its next request connects again."""
        conn, self._local.conn = getattr(self._local, "conn", None), None
        if conn is not None:
            conn.close()

    def close(self) -> None:
        """Close every connection this client holds (any thread's)."""
        with self._open_lock:
            conns = list(self._open)
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
        send_headers = {"Host": self.netloc, "Content-Type": "application/json", **(headers or {})}
        for attempt in (0, 1):
            try:
                conn = getattr(self._local, "conn", None) or self._connect()
                self._local.conn = conn
                status, head, reusable = conn.exchange(method, url, body, send_headers)
                # The payload stays bytes: a relayed read is written to the
                # next socket as it arrived, not transcoded on the way.
                payload = b"".join(_body(conn.rfile, head))
            except _RETRYABLE as exc:
                # A dead keep-alive socket surfaces only when reused; give
                # the request one fresh connection before declaring the peer
                # unreachable.
                self._release()
                if attempt == 1:
                    raise TransportError(
                        f"{method} http://{self.netloc}{url} failed: {exc}"
                    ) from exc
                continue
            if not reusable:
                self._release()
            return Response(body=payload, status=status, headers=head)

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
        conn = None
        try:
            conn = self._connect()
            send_headers = {"Host": self.netloc, **(headers or {})}
            status, head, _ = conn.exchange("GET", url, b"", send_headers)
        except _RETRYABLE as exc:
            if conn is not None:
                conn.close()
            raise TransportError(f"GET http://{self.netloc}{url} failed: {exc}") from exc
        return StreamedResponse(conn, status, head)

    # TestClient-compatible surface -----------------------------------------
    def get(self, url: str) -> Response:
        return self.request("GET", url)

    def post(
        self, url: str, json_body: Any = None, body: bytes = b"", headers: Mapping[str, str] | None = None
    ) -> Response:
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        return self.request("POST", url, body=body, headers=headers)

    def put(self, url: str, json_body: Any = None, body: bytes = b"") -> Response:
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
        return self.request("PUT", url, body=body)

    def delete(self, url: str) -> Response:
        return self.request("DELETE", url)

    def get_json(self, url: str) -> Any:
        """GET expecting a 2xx JSON body; raises TransportError otherwise."""
        return self._json("GET", url, self.get(url))

    def post_json(self, url: str, payload: Any = None) -> Any:
        """POST expecting a 2xx JSON body; raises TransportError otherwise."""
        return self._json("POST", url, self.post(url, json_body={} if payload is None else payload))

    def _json(self, method: str, url: str, response: Response) -> Any:
        if not response.ok:
            raise TransportError(
                f"{method} http://{self.netloc}{url} returned {response.status}: "
                f"{response.text[:200]}"
            )
        return response.json()


class StreamedResponse:
    """An in-flight streaming response on its own dedicated connection.

    ``chunks()`` yields the body as it arrives (see :func:`_body`); a
    connection failure mid-body raises :class:`~repro.errors.TransportError`
    from it — stream consumers resume by reconnecting with their cursor.
    """

    def __init__(self, conn: _Connection, status: int, headers: Headers):
        self._conn = conn
        self.status = status
        self.headers = headers

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def read(self) -> bytes:
        """Drain the remaining body (for non-200s that are really buffered)."""
        return b"".join(self.chunks())

    def chunks(self) -> Iterator[bytes]:
        try:
            yield from _body(self._conn.rfile, self.headers)
        except _RETRYABLE as exc:
            raise TransportError(f"stream interrupted: {exc}") from exc
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
