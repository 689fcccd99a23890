"""Socket-facing adapter: real HTTP requests onto the in-process framework.

:mod:`repro.webapp.framework` is deliberately socket-free (tests and
benchmarks drive apps through :class:`~repro.webapp.framework.TestClient`).
This module is the thin bridge that ``repro serve`` uses to put the same
:class:`~repro.webapp.framework.WebApp` behind a real port:

* :func:`make_server` — a :class:`http.server.ThreadingHTTPServer` (one
  thread per connection) whose handler runs the connection's keep-alive
  loop itself: a :class:`~repro.webapp.http1.Reader` reads each request head
  from one buffer, the handler turns it into a framework
  :class:`~repro.webapp.framework.Request`, dispatches it through
  ``do_GET`` / ``do_POST`` / ..., and writes the
  :class:`~repro.webapp.framework.Response` back in one ``sendall``.
  Thread-per-connection matches the service layer's locking model
  (per-shard RLocks).
* :func:`serve` — ``make_server`` + ``serve_forever`` with a clean
  KeyboardInterrupt exit; the CLI calls this.

Unexpected handler exceptions become a 500 JSON error instead of killing
the connection's thread, so one bad request never takes the service down,
and every refusal of a request head is a JSON error that closes the
connection.
"""

from __future__ import annotations

import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..webapp.framework import (
    JsonResponse,
    RelayedResponse,
    Request,
    Response,
    StreamingResponse,
    WebApp,
)
from ..webapp.http1 import HeadError, Reader, http_date, split_head

#: ``METHOD target HTTP/major.minor`` — one space apart, as RFC 7230 has it.
_REQUEST_LINE = re.compile(r"(\S+) (\S+) HTTP/(\d+)\.(\d+)")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER = f"flordb-service Python/{sys.version.split()[0]}"


def _handler_class(app: WebApp, quiet: bool) -> type[socketserver.BaseRequestHandler]:
    class FrameworkHTTPHandler(socketserver.BaseRequestHandler):
        def handle(self) -> None:
            """The connection's keep-alive loop: read a head, dispatch it to
            ``do_<METHOD>``, answer, until a side closes or a head is refused."""
            # Small responses must not wait on the peer's delayed ACK; with
            # one write per response (see _send) there is nothing for Nagle
            # to merge.
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = Reader(self.request)
            self.requestline = ""
            while True:
                try:
                    head = self.reader.head()
                    if not head:
                        return
                    self.parse_request(head)
                except HeadError as exc:
                    self.send_error(exc.status, str(exc))
                    return
                except OSError:
                    return  # a head cut short by the peer's close or reset
                method = getattr(self, "do_" + self.command, None)
                if method is None:
                    self.send_error(501, f"Unsupported method ({self.command!r})")
                    return
                method()
                if self.close_connection:
                    return

        def parse_request(self, head: bytes) -> None:
            """Set ``command``, ``path``, ``headers``, ``body_length`` and
            ``close_connection`` from a head, or raise :class:`HeadError`:
            for a line not ``METHOD target HTTP/1.x`` (505 for HTTP/2+), a
            head :mod:`repro.webapp.http1` refuses, and framing but one
            ``Content-Length`` (past it the next request is lost)."""
            self.close_connection = True
            self.requestline, self.headers = line, headers = split_head(head)
            match = _REQUEST_LINE.fullmatch(line)
            if match is None or match[3] != "1":
                status = 400 if match is None else 505
                raise HeadError(status, f"not an HTTP/1.x request line: {line!r}")
            if headers.get("Transfer-Encoding") is not None:
                raise HeadError(411, "Transfer-Encoding is not accepted; send Content-Length")
            length = raw_length = headers.get("Content-Length", "0")
            if not (length.isascii() and length.isdigit()):  # a repeat: "N, N" is one length
                lengths = {value.strip() for value in raw_length.split(",")}
                length = lengths.pop()
                if lengths or not (length.isascii() and length.isdigit()):
                    raise HeadError(400, f"invalid Content-Length: {raw_length!r}")
            self.command, self.path, self.body_length = match[1], match[2], int(length)
            if self.path.startswith("//"):  # gh-87389: not a scheme-less URL
                self.path = "/" + self.path.lstrip("/")
            connection, http10 = headers.get("Connection", "").lower(), match[4] == "0"
            self.close_connection = connection == "close" or (http10 and connection != "keep-alive")
            if not http10 and headers.get("Expect", "").lower() == "100-continue":
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")

        def send_error(self, code: int, message: str | None = None) -> None:
            """Every refusal: JSON, then close."""
            self.close_connection = True
            error = message or _REASONS.get(code, "error")
            self._send(JsonResponse({"error": error}, status=code, headers={"Connection": "close"}))

        def _dispatch(self) -> None:
            try:
                body = self.reader.read(self.body_length)
            except OSError:
                self.close_connection = True
                return
            parts = urlsplit(self.path)
            request = Request(
                method=self.command,
                path=parts.path or "/",
                query={k: v[-1] for k, v in parse_qs(parts.query).items()} if parts.query else {},
                headers=self.headers,
                body=body,
            )
            try:
                response = app.handle(request)
            except Exception as exc:  # noqa: BLE001 - keep the connection's thread alive
                response = JsonResponse({"error": f"internal error: {exc}"}, status=500)
            if isinstance(response, StreamingResponse):
                self._send_stream(response)
                return
            self._send(response)

        def _head(self, status: int, headers: dict[str, str]) -> bytes:
            """Status line and header block as bytes, so they leave in the
            same write as the body."""
            if not quiet:
                self._log(status)
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
                f"Server: {_SERVER}\r\nDate: {http_date()}\r\n"
            )
            for key, value in headers.items():
                head += f"{key}: {value}\r\n"
            return f"{head}\r\n".encode("latin-1")

        def _send(self, response: Response) -> None:
            """Write head and body as one segment.

            Written separately, the body — a second small segment — waited
            ≈40 ms for the client's delayed ACK of the first (Nagle).  A
            relayed answer goes out with the head it arrived with.  A
            client that resets the connection mid-write gets the same
            treatment as a departed stream subscriber: drop the connection,
            keep the thread.
            """
            body = response.body
            payload = body if isinstance(body, bytes) else body.encode("utf-8")
            if isinstance(response, RelayedResponse):
                head = response.head
                if not quiet:
                    self._log(response.status)
            else:
                head = self._head(
                    response.status, {**response.headers, "Content-Length": str(len(payload))}
                )
            try:
                self.request.sendall(head + payload)
            except OSError:
                self.close_connection = True

        def _send_stream(self, response: StreamingResponse) -> None:
            """Write an iterator body with chunked transfer encoding.

            Each chunk is sent as soon as the handler yields it — that is
            the entire point of a streaming response: an SSE tail event
            reaches the subscriber the moment its row commits, not when
            the (never-ending) body completes.  The header block rides with
            the first chunk (every stream route yields one at once), for
            the same one-segment reason as :meth:`_send`.  A client that
            disconnects surfaces as a broken pipe on write; the handler
            closes the body iterator (releasing its tail subscription) and
            drops the connection instead of killing the thread.
            """
            head = self._head(
                response.status, {**response.headers, "Transfer-Encoding": "chunked"}
            )
            try:
                for chunk in response.chunks:
                    data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                    if not data:
                        continue
                    self.request.sendall(head + b"%x\r\n" % len(data) + data + b"\r\n")
                    head = b""
                self.request.sendall(head + b"0\r\n\r\n")
            except Exception:  # noqa: BLE001 - the subscriber went away, or the
                # stream failed after its status line was sent: either way it
                # can only end here.
                self.close_connection = True
            finally:
                response.close()

        def _log(self, status: int) -> None:
            when = time.strftime("%d/%b/%Y %H:%M:%S")
            host = self.client_address[0]
            sys.stderr.write(f'{host} - - [{when}] "{self.requestline}" {status} -\n')

        do_GET = _dispatch
        do_POST = _dispatch
        do_PUT = _dispatch
        do_DELETE = _dispatch

    return FrameworkHTTPHandler


def make_server(
    app: WebApp, host: str = "127.0.0.1", port: int = 0, *, quiet: bool = True
) -> ThreadingHTTPServer:
    """Bind ``app`` to ``host:port`` (port 0 picks a free one) without serving yet."""
    return ThreadingHTTPServer((host, port), _handler_class(app, quiet))


def serve(
    app: WebApp,
    host: str = "127.0.0.1",
    port: int = 8230,
    *,
    quiet: bool = False,
    ready: Callable[[str, int], None] | None = None,
    shutdown_event: threading.Event | None = None,
) -> None:
    """Serve ``app`` until interrupted (or ``shutdown_event`` is set).

    ``ready`` is called with the bound ``(host, port)`` once the socket is
    listening — tests use it to learn the ephemeral port before connecting.
    """
    server = make_server(app, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    if ready is not None:
        ready(str(bound_host), int(bound_port))
    watcher = None
    if shutdown_event is not None:
        watcher = threading.Thread(
            target=lambda: (shutdown_event.wait(), server.shutdown()), daemon=True
        )
        watcher.start()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if watcher is not None:
            shutdown_event.set()
            watcher.join(timeout=1.0)
