"""The load generator's HTTP client: one keep-alive connection, no retries.

Deliberately not ``repro.fleet.transport.HttpClient``: that class is the
router hop, part of the program, and later changes will alter it.  A failed
round trip here is reported to the caller, which counts the op as failed;
the next request opens a fresh connection.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Mapping

_JSON_HEADERS = {"Content-Type": "application/json"}


class ClientError(Exception):
    """The round trip did not complete (connection refused, reset, timeout)."""


class Client:
    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        send = dict(_JSON_HEADERS) if body is not None else {}
        if headers:
            send.update(headers)
        try:
            self._conn.request(method, path, body=body, headers=send)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError, socket.timeout) as exc:
            self.close()
            raise ClientError(f"{method} {path}: {exc}") from exc

    def get_json(self, path: str) -> Any:
        """GET expecting 2xx JSON; anything else raises :class:`ClientError`."""
        status, data = self.request("GET", path)
        if not 200 <= status < 300:
            raise ClientError(f"GET {path}: status {status}: {data[:200]!r}")
        return json.loads(data)

    def post_json(self, path: str, payload: Any) -> Any:
        status, data = self.request("POST", path, json.dumps(payload).encode("utf-8"))
        if not 200 <= status < 300:
            raise ClientError(f"POST {path}: status {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
