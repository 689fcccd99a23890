"""The HTTP/1.1 head codec both ends of a FlorDB socket share.

``service/server.py`` reads request heads with it, ``fleet/transport.py``
response heads.  The limits are the stdlib's: a line over 64 KiB, or more
than 100 lines with the blank one, is a 431; a field name that is not an
RFC 7230 token (space before the colon, obs-fold, no colon) is a 400.
"""

from __future__ import annotations

import re
import time
from typing import BinaryIO

MAX_LINE = 65536
MAX_HEADERS = 100

_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


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


def read_line(rfile: BinaryIO) -> bytes:
    """One line of at most :data:`MAX_LINE` bytes (``b""`` at EOF)."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HeadError(431, "header line longer than 64 KiB")
    return line


def read_headers(rfile: BinaryIO) -> Headers:
    """The header lines after a request or status line, through the blank one."""
    headers = Headers()
    for _ in range(MAX_HEADERS):
        line = read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise HeadError(400, f"malformed header line {line!r}")
        headers.add(name, value.strip())
    raise HeadError(431, f"more than {MAX_HEADERS} header lines")


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
