"""Fleet entry point: bind the router, boot the workers, serve until told.

Bootstrap ordering is the subtle part.  Workers register by POSTing to the
router, so the router's socket must be *accepting and serving* before the
first worker spawns — but ``serve_forever`` blocks.  The sequence here:

1. bind the router server (ephemeral port allowed) — now the register URL
   is known;
2. start ``serve_forever`` on a background thread — registrations can be
   processed;
3. spawn the workers and block until every one has registered;
4. announce readiness (the CLI banner) and park on the shutdown event.

Shutdown inverts it: stop accepting, then drain + SIGTERM the workers
(each seals its shards before leaving the ring — see
:meth:`~repro.fleet.supervisor.FleetSupervisor.stop_worker`).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Iterable

from ..qos import AdmissionController, PolicyStore
from ..service.server import make_server
from .router import FleetRouter
from .supervisor import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    FleetSupervisor,
    default_worker_argv,
)
from .worker import DEFAULT_HEARTBEAT_INTERVAL


def serve_fleet(
    root: Path | str,
    *,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 8230,
    worker_args: Iterable[str] = (),
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    quiet: bool = False,
    startup_timeout: float = 60.0,
    ready: Callable[[str, int, FleetSupervisor], None] | None = None,
    shutdown_event: threading.Event | None = None,
    qos: bool = False,
    qos_policy_file: Path | str | None = None,
) -> None:
    """Run a worker fleet until ``shutdown_event`` (or KeyboardInterrupt).

    With ``qos`` (or a ``qos_policy_file``, which implies it), admission
    control runs on the *router*: one policy store and one set of
    per-tenant buckets front the whole fleet, and workers are spawned
    without QoS flags — they trust the router.
    """
    supervisor = FleetSupervisor(
        default_worker_argv(
            root,
            heartbeat_interval=heartbeat_interval,
            extra=worker_args,
        ),
        workers=workers,
        heartbeat_timeout=heartbeat_timeout,
    )
    policies: PolicyStore | None = None
    admission: AdmissionController | None = None
    if qos_policy_file is not None:
        policies = PolicyStore.load_file(root, qos_policy_file)
        qos = True
    elif qos:
        policies = PolicyStore.open(root)
    if qos and policies is not None:
        admission = AdmissionController(policies)
    router = FleetRouter(supervisor, policies=policies, admission=admission)
    server = make_server(router, host, port, quiet=quiet)  # type: ignore[arg-type]
    bound_host, bound_port = server.server_address[:2]
    register_url = f"http://{bound_host}:{int(bound_port)}"
    serving = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    serving.start()
    stop = shutdown_event if shutdown_event is not None else threading.Event()
    try:
        supervisor.start(register_url, startup_timeout=startup_timeout)
        if ready is not None:
            ready(str(bound_host), int(bound_port), supervisor)
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
    finally:
        server.shutdown()
        serving.join(timeout=2.0)
        server.server_close()
        supervisor.shutdown()
        router.close()
