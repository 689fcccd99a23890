"""Tests for the socket-facing HTTP bridge behind ``repro serve``."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import FlorService
from repro.service.server import make_server, serve


@pytest.fixture()
def running_service(tmp_path):
    """A FlorService behind a real socket on an ephemeral port."""
    service = FlorService(tmp_path / "host", flush_size=2, flush_interval=None)
    address = {}
    ready = threading.Event()
    stop = threading.Event()

    def on_ready(host: str, port: int) -> None:
        address.update(host=host, port=port)
        ready.set()

    thread = threading.Thread(
        target=serve,
        args=(service.app(),),
        kwargs=dict(port=0, quiet=True, ready=on_ready, shutdown_event=stop),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5), "server did not come up"
    yield f"http://{address['host']}:{address['port']}", service
    stop.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    service.close()


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


class TestBridge:
    def test_append_and_query_over_a_real_socket(self, running_service):
        base, _ = running_service
        status, body = _post(
            base + "/projects/alpha/logs",
            {"records": [{"name": "loss", "value": 0.5}, {"name": "loss", "value": 0.4, "ctx_id": 1}]},
        )
        assert status == 202
        assert body["queued"] == 2
        status, body = _get(base + "/projects/alpha/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs")
        assert status == 200
        assert body["records"] == [{"n": 2}]

    def test_write_sql_is_rejected_with_400(self, running_service):
        base, _ = running_service
        _post(base + "/projects/alpha/logs", {"records": [{"name": "loss", "value": 1.0}]})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/projects/alpha/sql?q=DROP%20TABLE%20logs")
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, running_service):
        base, _ = running_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_healthz(self, running_service):
        base, _ = running_service
        status, body = _get(base + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_concurrent_http_clients(self, running_service):
        base, service = running_service
        errors = []

        def worker(worker_id: int) -> None:
            for i in range(10):
                try:
                    _post(
                        base + "/projects/shared/logs",
                        {"records": [{"name": "m", "value": worker_id, "ctx_id": i}]},
                    )
                except Exception as exc:  # noqa: BLE001 - collected for the assertion
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        _, body = _get(base + "/projects/shared/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs")
        assert body["records"] == [{"n": 40}]


class TestMalformedRequests:
    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_unusable_content_length_is_a_400_and_closes(self, running_service, content_length):
        """``-1`` used to park the handler thread in ``rfile.read(-1)``;
        ``abc`` raised out of it and dropped the connection unanswered."""
        base, _ = running_service
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=2) as sock:
            sock.sendall(
                b"POST /projects/alpha/logs HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: " + content_length.encode() + b"\r\n"
                b"\r\n"
            )
            raw = b""
            while chunk := sock.recv(4096):  # until the server closes, within the timeout
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]
        # The listener is unharmed.
        assert _get(base + "/healthz")[0] == 200


class TestMakeServer:
    def test_port_zero_binds_an_ephemeral_port(self, tmp_path):
        service = FlorService(tmp_path / "h2")
        server = make_server(service.app(), port=0)
        try:
            assert server.server_address[1] > 0
        finally:
            server.server_close()
            service.close()
