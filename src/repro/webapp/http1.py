"""The HTTP/1.1 wire both ends of a FlorDB socket share.

A :class:`Reader` owns one socket's incoming bytes: ``service/server.py``
reads request heads and bodies through it, ``fleet/transport.py`` response
heads and bodies.  A head is read with ``recv_into`` into one buffer until
its blank line and handed over whole; bytes past it (the body, a pipelined
request) stay buffered for the next read.  :func:`split_head` splits a
request head in one pass; :func:`response_head` reads only a response's
status line and framing fields, and :func:`relay_head` drops the fields
about the peer's connection so a proxy can pass the rest on as it arrived.

The limits are the stdlib's: a line over 64 KiB is a 414 when it is the
first line and a 431 otherwise, and so is more than 100 lines with the
blank one; a field name that is not an RFC 7230 token (space before the
colon, obs-fold, no colon) or a line ended by a bare LF is a 400.  Lines
end in CRLF.
"""

from __future__ import annotations

import re
import socket
import time
from typing import NamedTuple

MAX_LINE = 65536
MAX_HEADERS = 100

#: Bytes one ``recv_into`` may bring.
_RECV = 65536

_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: Fields about one connection, which a relay drops (and then frames the
#: body by its length).
_CONNECTION_FIELDS = ("connection", "keep-alive", "transfer-encoding", "te", "trailer", "upgrade")
#: The lines of a response head a client reads: ``Content-Length`` and the
#: fields above.
_FRAMING = re.compile(
    rb"\r\n(content-length|%s):([^\r\n]*)" % b"|".join(f.encode() for f in _CONNECTION_FIELDS),
    re.IGNORECASE,
)
#: What :func:`end_to_end` leaves out: the fields above, and the ones the
#: socket bridge writes for each hop.
_HOP_BY_HOP = frozenset({*_CONNECTION_FIELDS, "content-length", "date", "server"})


class HeadError(ValueError):
    """A head this codec refuses; ``status`` is the server's answer to it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Headers(dict):
    """Header fields under their names as sent; :meth:`get` ignores case.
    A repeated field's values are joined with ``", "`` under its first
    spelling (RFC 7230 §3.2.2), so a conflicting repeat stays visible."""

    def __init__(self) -> None:
        super().__init__()
        self._spelled: dict[str, str] = {}

    def add(self, name: str, value: str) -> None:
        key = self._spelled.setdefault(name.lower(), name)
        self[key] = f"{self[key]}, {value}" if key in self else value

    def get(self, name: str, default=None):  # type: ignore[override]
        key = self._spelled.get(name.lower())
        return default if key is None else self[key]


def end_to_end(headers: Headers) -> Headers:
    """``headers`` without the fields that describe one hop."""
    kept = Headers()
    for name, value in headers.items():
        if name.lower() not in _HOP_BY_HOP:
            kept.add(name, value)
    return kept


def _check_line(length: int, index: int) -> None:
    """Refuse line ``index`` of a head (0 is the first) if it is too long,
    or past the line limit."""
    if length > MAX_LINE:
        raise HeadError(414 if index == 0 else 431, "header line longer than 64 KiB")
    if index > MAX_HEADERS:
        raise HeadError(431, f"more than {MAX_HEADERS} header lines")


class Reader:
    """One socket's incoming bytes, read through one buffer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()
        self._scratch = memoryview(bytearray(_RECV))

    def _fill(self) -> bool:
        """Append one ``recv`` to the buffer; False at the peer's close."""
        received = self.sock.recv_into(self._scratch)
        self._buffer += self._scratch[:received]
        return received > 0

    def head(self) -> bytes:
        """The next head, through its blank line; ``b""`` when the peer
        closed before sending a byte of it.  A head cut short by the close
        is a :class:`ConnectionError`, one past the limits a
        :class:`HeadError`; either way nothing of it is left to read."""
        buffer = self._buffer
        if not buffer:
            self._fill()  # most heads arrive whole, with their body, in one recv
        end = buffer.find(b"\r\n\r\n")
        if end < 0 and (end := self._await_head()) < 0:
            return b""
        head = bytes(buffer[: end + 4])
        del buffer[: end + 4]
        if len(head) > MAX_LINE or head.count(b"\n") > MAX_HEADERS + 1:
            for index, line in enumerate(head[:-2].split(b"\n")):
                _check_line(len(line) + 1, index)
        return head

    def _await_head(self) -> int:
        """Receive until the buffer holds a blank line; where it starts, or
        -1 at a close before any byte.  The partial head is held to the
        limits as it grows, so a peer that never ends it cannot grow the
        buffer past them."""
        buffer, seen, line_start, lines = self._buffer, 0, 0, 0
        while True:
            while (newline := buffer.find(b"\n", seen)) >= 0:
                _check_line(newline + 1 - line_start, lines)
                lines, line_start = lines + 1, newline + 1
                seen = line_start
            _check_line(len(buffer) - line_start, lines)
            seen = len(buffer)
            if not self._fill():
                if buffer:
                    del buffer[:]
                    raise ConnectionError("the peer closed the connection mid-head")
                return -1
            if (end := buffer.find(b"\r\n\r\n", max(seen - 3, 0))) >= 0:
                return end

    def read(self, size: int) -> bytes:
        """Exactly ``size`` bytes; a :class:`ConnectionError` if the peer
        closes first.  The buffer grows only by what arrives, never by the
        size a peer declares."""
        buffer = self._buffer
        while len(buffer) < size:
            if not self._fill():
                raise ConnectionError(
                    f"the peer closed the connection {size - len(buffer)} bytes short"
                )
        data = bytes(buffer[:size])
        del buffer[:size]
        return data

    def line(self) -> bytes:
        """One line of at most :data:`MAX_LINE` bytes, with its ending
        (what is left, maybe ``b""``, at the peer's close)."""
        buffer = self._buffer
        while (newline := buffer.find(b"\n")) < 0:
            if len(buffer) > MAX_LINE:
                raise HeadError(431, "line longer than 64 KiB")
            if not self._fill():
                newline = len(buffer) - 1
                break
        line = bytes(buffer[: newline + 1])
        del buffer[: newline + 1]
        if len(line) > MAX_LINE:
            raise HeadError(431, "line longer than 64 KiB")
        return line

    def some(self) -> bytes:
        """What is buffered, else one ``recv``; ``b""`` at the peer's close."""
        if not self._buffer and not self._fill():
            return b""
        data = bytes(self._buffer)
        del self._buffer[:]
        return data


def split_head(head: bytes) -> tuple[str, Headers]:
    """A head from :meth:`Reader.head` as its first line and its fields."""
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    if text.count("\n") != len(lines) - 1:
        raise HeadError(400, "a head line ends in a bare LF")
    headers, spelled = Headers(), {}
    for line in lines[1:-2]:
        name, colon, value = line.partition(":")
        if not colon or _FIELD_NAME.fullmatch(name) is None:
            raise HeadError(400, f"malformed header line {line!r}")
        headers[name] = value.strip()
        spelled[name.lower()] = name
    if len(spelled) < len(lines) - 3:  # a repeated field: join its values
        headers = Headers()
        for line in lines[1:-2]:
            name, _, value = line.partition(":")
            headers.add(name, value.strip())
    else:
        headers._spelled = spelled
    return lines[0], headers


class ResponseHead(NamedTuple):
    """What a client must know of a response head to read its body."""

    status: int
    length: int | None  # Content-Length
    chunked: bool
    reusable: bool  # framed, and the peer did not ask to close
    relayable: bool  # framed by length, and no field about the peer's connection


def response_head(head: bytes) -> ResponseHead:
    """The status line and framing fields of a response head from
    :meth:`Reader.head`, the only lines of it read."""
    first = head.find(b"\r\n")
    version, _, rest = head[:first].partition(b" ")
    if not (version.startswith(b"HTTP/1.") and rest[:3].isdigit()):
        raise ConnectionError(f"no HTTP/1.x status line: {head[:first][:80]!r}")
    length = encoding = connection = None
    hop = False
    for name, value in _FRAMING.findall(head, first):
        name, value = name.lower(), value.strip().lower()
        if name == b"content-length":
            if not value.isdigit() or length not in (None, int(value)):
                raise ConnectionError(f"body not of Content-Length {value!r}")
            length = int(value)
            continue
        hop = True
        if name == b"transfer-encoding":
            encoding = value
        elif name == b"connection":
            connection = value
    framed = length is not None or encoding is not None
    return ResponseHead(
        int(rest[:3]), length, encoding == b"chunked",
        framed and connection != b"close", length is not None and not hop,
    )


def relay_head(head: bytes, body_length: int) -> bytes:
    """``head`` without its fields about the peer's connection and its
    framing, and with the ``Content-Length`` of the body it is relayed with."""
    lines = [
        line for line in head[:-4].split(b"\r\n")
        if _FRAMING.match(b"\r\n" + line) is None
    ]
    lines.append(b"Content-Length: %d" % body_length)
    return b"\r\n".join(lines) + b"\r\n\r\n"


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_date = (0, "")


def http_date() -> str:
    """Now as an RFC 7231 ``Date`` value, formatted once per second."""
    global _date
    now = int(time.time())
    if now != _date[0]:
        t = time.gmtime(now)
        _date = (now, f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
                      f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")
    return _date[1]
