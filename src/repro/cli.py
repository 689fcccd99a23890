"""Command-line interface to a FlorDB project.

The paper positions FlorDB as open, low-friction tooling that fits the
developer's existing workflow; the CLI is the shell-side of that story.  It
operates on the ``.flor`` home of a project directory and never requires the
original training scripts to be importable.

Subcommands
-----------
``names``      list every log name recorded for the project
``versions``   list version epochs (ts2vid joined with commit metadata)
``dataframe``  print the pivoted view of one or more log names
               (``--since``/``--until`` push a timestamp range into SQLite)
``sql``        run a read-only SQL statement (optionally over a pivoted view)

Both query subcommands route through the session's
:class:`~repro.query.QueryEngine` — the same pushdown + pivot-cache path
the Python API and the HTTP service use.
``stats``      table row counts and storage summary
``backfill``   multiversion hindsight logging for a script in the project
               (``--dry-run`` prints the propagation patch plan per version
               without executing any replay)
``build``      incremental (optionally parallel) build of a Makefile target
``serve``      multi-tenant HTTP service over the projects under a root
               directory (sharded pool + batched ingestion; see
               :mod:`repro.service`); ``--job-workers N`` embeds N durable
               job workers, and SIGTERM/SIGINT drain them gracefully;
               ``--workers N`` runs a multi-process worker fleet instead —
               a consistent-hash shard router in front of N supervised
               worker processes (see :mod:`repro.fleet`)
``jobs``       durable background jobs over the same root:
               ``submit | status | watch | list | cancel | retry | run``
               (see :mod:`repro.jobs`)
``policy``     per-tenant QoS policy table for the same root:
               ``show | set | delete`` — edits are conflict-checked, and a
               running ``serve --qos`` picks them up within its refresh
               interval (see :mod:`repro.qos`)
``monitor``    live terminal dashboard over a running service or fleet
               router: subscribes to ``GET /service/telemetry?stream=1``
               and renders counters (with rates), gauges, histogram
               percentiles, tail-broker state (see :mod:`repro.obs`)

Example::

    python -m repro.cli --project ./myproj dataframe acc recall
    python -m repro.cli --project ./myproj sql "SELECT COUNT(*) FROM logs"
    python -m repro.cli --project ./myproj backfill train.py --dry-run
    python -m repro.cli --project ./myproj build run --jobs 4
    python -m repro.cli --project ./projects serve --port 8230 --job-workers 2
    python -m repro.cli --project ./projects jobs submit alpha train.py
    python -m repro.cli --project ./projects jobs watch 1

Note that ``serve`` and ``jobs`` interpret ``--project`` differently from
the other subcommands: it is the *root holding one project subdirectory per
tenant* (``<root>/<name>/.flor``), because the service — and the job queue
that feeds its workers — is multi-tenant by design.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .config import ProjectConfig
from .core.hindsight import HindsightEngine
from .core.replay import ReplayPlan
from .core.session import Session
from .errors import ReproError
from .relational.schema import TABLES


def _open_session(args: argparse.Namespace) -> Session:
    return Session(ProjectConfig(Path(args.project), args.projid or ""))


def _cmd_names(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        names = session.logs.distinct_names(session.projid)
        for name in names:
            print(name)
        if not names:
            print("(no log names recorded)", file=sys.stderr)
    return 0


def _cmd_versions(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        epochs = session.ts2vid.all(session.projid)
        if not epochs:
            print("(no versions recorded)", file=sys.stderr)
            return 0
        commits = {c.vid: c for c in session.repository.log()}
        print(f"{'ts_start':<28} {'vid':<18} {'files':>5}  message")
        for epoch in epochs:
            commit = commits.get(epoch.vid)
            files = len(commit.files) if commit else 0
            message = commit.message if commit else ""
            print(f"{epoch.ts_start:<28} {epoch.vid:<18} {files:>5}  {message}")
    return 0


def _cmd_dataframe(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        tstamp_range = None
        if args.since or args.until:
            tstamp_range = (args.since, args.until)
        frame = session.dataframe(
            *args.names, latest=args.latest, tstamp_range=tstamp_range
        )
        print(frame.to_string(max_rows=args.max_rows))
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        frame = session.sql(args.query, names=args.names or ())
        print(frame.to_string(max_rows=args.max_rows))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        print(f"project:  {session.projid}")
        print(f"database: {session.config.db_path}")
        for table in TABLES:
            if table == "meta":
                continue
            print(f"{table:>12}: {session.db.count(table)} rows")
        print(f"{'commits':>12}: {len(session.repository)}")
        print(f"{'log names':>12}: {len(session.logs.distinct_names(session.projid))}")
    return 0


def _print_dry_run(report) -> None:
    """Print the propagation patch plan per version (no replay executed)."""
    print(f"dry run: patch plan for {report.filename!r} across {len(report.versions)} version(s)")
    for version in report.versions:
        if version.error is not None:
            print(f"  {version.vid}  error: {version.error}")
            continue
        propagation = version.propagation
        print(
            f"  {version.vid}  inject={version.injected_statements}"
            f"  drop={version.skipped_statements}"
            f"  already_present={len(propagation.already_present) if propagation else 0}"
        )
        if propagation is None:
            continue
        for statement, anchor in propagation.placements:
            # Insertion index N means the statement lands after old line N.
            where = "at top of file" if anchor == 0 else f"after old line {anchor}"
            print(f"    + {statement.text.strip().splitlines()[0]}  ({where})")
        for statement in propagation.skipped:
            print(
                f"    ! dropped (would not parse/anchor): "
                f"{statement.text.strip().splitlines()[0]}"
            )


def _cmd_backfill(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        engine = HindsightEngine(session)
        plan = ReplayPlan.all()
        if args.epoch is not None:
            plan = ReplayPlan.only(**{args.loop: list(args.epoch)})
        new_source = Path(args.source).read_text() if args.source else None
        report = engine.backfill(
            args.filename,
            new_source=new_source,
            plan=plan,
            parallelism=args.parallelism,
            max_workers=args.workers,
            dry_run=args.dry_run,
        )
        if args.dry_run:
            _print_dry_run(report)
            return 0 if all(v.error is None for v in report.versions) else 1
        summary = report.summary()
        for key, value in summary.items():
            print(f"{key:>22}: {value}")
        for version in report.versions:
            status = "ok" if version.ok else f"error: {version.error or version.replay.error}"
            print(f"  {version.vid}  injected={version.injected_statements}  {status}")
        return 0 if all(v.ok for v in report.versions) else 1


def _cmd_build(args: argparse.Namespace) -> int:
    from .build.executor import BuildExecutor
    from .build.makefile import load_makefile

    with _open_session(args) as session:
        makefile_path = Path(args.makefile)
        if not makefile_path.is_absolute():
            makefile_path = session.config.root / makefile_path
        makefile = load_makefile(makefile_path)
        executor = BuildExecutor(
            makefile,
            workdir=session.config.root,
            session=None if args.no_record else session,
            jobs=args.jobs,
            materialize_missing=False,
        )
        report = executor.build(args.target, force=args.force)
        for result in report.results:
            status = "RUN   " if result.executed else "cached"
            print(f"[{status}] {result.target:<20} {result.reason}")
        print(
            f"built {report.goal!r}: {len(report.executed)} executed, "
            f"{len(report.cached)} cached, jobs={report.jobs}, {report.seconds:.3f}s"
        )
        if report.vid:
            print(f"version: {report.vid}")
    return 0


def _install_shutdown_signals(shutdown_event) -> None:
    """Route SIGTERM/SIGINT into ``shutdown_event`` for graceful container stops.

    ``docker stop`` / Kubernetes pod eviction deliver SIGTERM; without a
    handler the process dies mid-request with job leases dangling until they
    expire.  With it, the server loop exits, job workers drain (in-flight
    jobs are released at a version boundary), and shards flush.  Signal
    handlers can only be installed from the main thread — tests driving
    ``serve`` from a worker thread simply skip them.
    """
    import signal

    def _handler(_signum, _frame):
        shutdown_event.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _handler)
        except ValueError:  # not the main thread
            return


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    """Supervisor mode: N worker processes behind a consistent-hash router."""
    import threading

    from .fleet.run import serve_fleet

    if args.backend != "sqlite":
        print(
            "error: --workers requires the sqlite backend "
            "(fleet workers share shard state through the filesystem)",
            file=sys.stderr,
        )
        return 2
    worker_args = [
        "--pool-capacity",
        str(args.pool_capacity),
        "--flush-size",
        str(args.flush_size),
        "--flush-interval",
        str(args.flush_interval),
        "--backend",
        args.backend,
    ]
    if args.job_workers > 0:
        # JobStore claiming is CAS-safe across processes, so every worker
        # can run its own drain loop over the shared host-level queue.
        worker_args += ["--job-workers", str(args.job_workers)]
    if args.access_log:
        # Each worker logs the requests it actually served (the router
        # proxies verbatim, so worker-side lines carry the tenant path).
        worker_args += ["--access-log", "--access-log-sample", str(args.access_log_sample)]
    # Deliberately NOT forwarded: --qos / --qos-policy.  Admission control
    # for a fleet runs on the router (one policy view, one set of buckets);
    # workers trust the router and run unthrottled.
    shutdown_event = threading.Event()
    _install_shutdown_signals(shutdown_event)
    root = Path(args.project).resolve()

    def ready(host: str, port: int, supervisor) -> None:
        summary = supervisor.summary()
        print(
            f"serving FlorDB fleet ({summary['registered']} workers) under "
            f"{root} at http://{host}:{port}"
        )
        print("routes: data plane proxied by project hash; control plane local")
        print("        GET /fleet/workers | GET /fleet/resolve?project=<name> | GET /service/stats")
        if args.qos or args.qos_policy:
            print("admission control: enforced at the router (429 + Retry-After; policy at /service/policy)")
        if args.job_workers > 0:
            print(f"job workers: {args.job_workers} per fleet worker (shared durable queue)")
        sys.stdout.flush()

    try:
        serve_fleet(
            root,
            workers=args.workers,
            host=args.host,
            port=args.port,
            worker_args=worker_args,
            heartbeat_interval=args.fleet_heartbeat,
            quiet=args.quiet,
            ready=ready,
            shutdown_event=shutdown_event,
            qos=args.qos,
            qos_policy_file=args.qos_policy,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from .jobs import JobRunner, pool_session_provider
    from .service import FlorService
    from .service.server import serve

    if args.workers > 0:
        return _cmd_serve_fleet(args)

    service = FlorService(
        Path(args.project).resolve(),
        pool_capacity=args.pool_capacity,
        flush_size=args.flush_size,
        flush_interval=None if args.flush_interval <= 0 else args.flush_interval,
        backend=args.backend,
        qos=args.qos,
        qos_policy_file=args.qos_policy,
    )
    shutdown_event = threading.Event()
    _install_shutdown_signals(shutdown_event)
    runner = None
    if args.job_workers > 0:
        runner = JobRunner(
            service.jobs,
            pool_session_provider(service.pool),
            workers=args.job_workers,
            name="serve-jobs",
        ).start()
    agent = None
    if args.fleet_worker:
        from .fleet.worker import WorkerAgent

        if not args.fleet_register:
            print("error: --fleet-worker requires --fleet-register", file=sys.stderr)
            return 2
        # An orphaned worker (supervisor gone, heartbeats failing past the
        # timeout) takes the same graceful exit as SIGTERM: drain + close.
        agent = WorkerAgent(
            args.fleet_worker,
            args.fleet_register,
            interval=args.fleet_heartbeat,
            on_orphaned=shutdown_event.set,
        )
        service.worker_agent = agent

    app = service.app()
    if args.access_log:
        from .obs import AccessLog, stderr_emitter

        # One structured line per (sampled) request to stderr; every
        # request still lands in the telemetry registry's http.* series.
        app = AccessLog(
            app,
            metrics=service.metrics,
            emit=stderr_emitter,
            sample=max(1, args.access_log_sample),
        )

    def ready(host: str, port: int) -> None:
        if agent is not None:
            # Registration completes fleet membership: the supervisor only
            # learns the bound ephemeral port from this POST.
            agent.start(f"http://{host}:{port}")
        print(f"serving FlorDB projects under {service.root} at http://{host}:{port}")
        print("routes: POST /projects/<name>/logs | POST /projects/<name>/commit")
        print("        GET  /projects/<name>/dataframe?names=... | GET /projects/<name>/sql?q=...")
        print("        POST /projects/<name>/jobs/backfill | GET /jobs/<id> | POST /jobs/<id>/cancel")
        if args.backend != "sqlite":
            print(f"storage backend: {args.backend} (rows and blobs never touch disk)")
        if service.admission is not None:
            print("admission control: per-tenant rate/quota limits (429 + Retry-After; policy at /service/policy)")
        if runner is not None:
            print(f"job workers: {args.job_workers} (durable queue at {service.root}/.flor-jobs.db)")
        sys.stdout.flush()

    try:
        serve(
            app,
            host=args.host,
            port=args.port,
            quiet=args.quiet,
            ready=ready,
            shutdown_event=shutdown_event,
        )
    finally:
        # Drain order matters: stop claiming and release in-flight jobs
        # first, then flush and close the shards the workers were using.
        if agent is not None:
            agent.stop()
        if runner is not None:
            runner.stop(wait=True)
        service.close()
    return 0


def _format_rule(rule: dict) -> str:
    limits = []
    if rule.get("rate") is not None:
        burst = rule.get("burst")
        limits.append(f"rate={rule['rate']:g}/s" + (f" burst={burst:g}" if burst is not None else ""))
    if rule.get("byte_quota") is not None:
        limits.append(f"bytes={rule['byte_quota']}/{rule['window_seconds']:g}s")
    if not limits:
        limits.append("unlimited")
    return f"{rule['selector']:<20} {' '.join(limits)}  priority={rule['priority']}"


def _cmd_policy_show(args: argparse.Namespace) -> int:
    from .qos import PolicyStore

    with PolicyStore.open(Path(args.project).resolve()) as policies:
        if args.tenant:
            resolution = policies.resolve(args.tenant)
            print(f"{args.tenant}: governed by {resolution.source} "
                  f"({resolution.rule.selector!r})")
            print("  " + _format_rule(resolution.rule.as_dict()))
            return 0
        rules = policies.rules()
        default = policies.default()
        print(f"policy table (generation {policies.generation()}):")
        for rule in rules:
            print("  " + _format_rule(rule.as_dict()))
        if default is not None:
            print("  " + _format_rule(default.as_dict()))
        if not rules and default is None:
            print("  (empty: every tenant admitted unlimited at normal priority)")
    return 0


def _cmd_policy_set(args: argparse.Namespace) -> int:
    from .errors import PolicyConflictError
    from .qos import PolicyStore, rule_from_payload

    payload = {
        "rate": args.rate,
        "burst": args.burst,
        "byte_quota": args.byte_quota,
        "window_seconds": args.window,
        "priority": args.priority,
        "position": args.position,
    }
    with PolicyStore.open(Path(args.project).resolve()) as policies:
        try:
            stored = policies.put(rule_from_payload(args.selector, payload))
        except PolicyConflictError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(f"  conflict: {exc.as_dict()}", file=sys.stderr)
            return 2
        print(_format_rule(stored.as_dict()))
    return 0


def _cmd_policy_delete(args: argparse.Namespace) -> int:
    from .qos import PolicyStore

    with PolicyStore.open(Path(args.project).resolve()) as policies:
        if policies.delete(args.selector):
            print(f"deleted policy rule {args.selector!r}")
            return 0
    print(f"error: no policy rule for selector {args.selector!r}", file=sys.stderr)
    return 1


def _open_job_store(args: argparse.Namespace):
    from .jobs import JobStore

    return JobStore.open(Path(args.project).resolve())


def _print_job(job, *, verbose: bool = False) -> None:
    line = (
        f"job {job.id}  [{job.state}]  project={job.project}  kind={job.kind}"
        f"  attempts={job.attempts}/{job.max_attempts}"
    )
    if job.error:
        line += f"  error={job.error!r}"
    print(line)
    if verbose:
        result = job.result or {}
        for key in sorted(result):
            print(f"    {key}: {result[key]}")


def _cmd_jobs_submit(args: argparse.Namespace) -> int:
    from .config import FLOR_DIR_NAME

    home = Path(args.project).resolve() / args.name / FLOR_DIR_NAME
    if not home.is_dir():
        # Fail at submit time, not execution time: a typo'd tenant name
        # should not become a durable job that workers fail on later.
        raise ReproError(f"unknown project {args.name!r}: no {home} on disk")
    payload: dict = {"filename": args.filename}
    if args.source:
        payload["new_source"] = Path(args.source).read_text()
    if args.epoch is not None:
        payload["plan"] = {args.loop: list(args.epoch)}
    if args.versions:
        payload["versions"] = args.versions
    with _open_job_store(args) as store:
        job = store.submit(
            args.name,
            args.kind,
            payload,
            priority=args.priority,
            max_attempts=args.max_attempts,
        )
        _print_job(job)
    return 0


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    with _open_job_store(args) as store:
        job = store.require(args.job_id)
        _print_job(job, verbose=True)
        if args.events:
            for event in store.events(job.id):
                print(f"    #{event.seq:<4} {event.kind:<18} {event.payload}")
    return 0


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    with _open_job_store(args) as store:
        jobs = store.list_jobs(project=args.name, state=args.state, limit=args.limit)
        if not jobs:
            print("(no jobs)", file=sys.stderr)
        for job in jobs:
            _print_job(job)
    return 0


def _watch_job_over_http(args: argparse.Namespace) -> int:
    """``jobs watch --url``: ride the live SSE event feed instead of polling.

    Subscribes to ``GET /jobs/<id>/tail`` (directly or through the fleet
    router) and prints events as they commit.  A dropped stream — the
    serving worker crashed, the router failed over — is *resumed*, not
    restarted: the last event seq goes back as ``Last-Event-ID`` and the
    relational backfill replays exactly what was missed.
    """
    import json as _json
    import time as _time

    from .errors import TransportError
    from .fleet.transport import HttpClient

    deadline = None if args.timeout <= 0 else _time.monotonic() + args.timeout
    last_seq = 0

    def _remaining() -> float | None:
        if deadline is None:
            return None
        return max(0.0, deadline - _time.monotonic())

    def _timed_out() -> bool:
        return deadline is not None and _time.monotonic() >= deadline

    with HttpClient(args.url, timeout=max(args.timeout, 30.0)) as client:
        while True:
            headers = {"Last-Event-ID": str(last_seq)} if last_seq else {}
            try:
                stream = client.stream(
                    f"/jobs/{args.job_id}/tail?keepalive=1.0", headers=headers
                )
            except TransportError as exc:
                if _timed_out():
                    print(f"timed out after {args.timeout}s: {exc}", file=sys.stderr)
                    return 1
                _time.sleep(0.5)
                continue
            if not stream.ok:
                body = stream.read().decode("utf-8", "replace")
                print(f"error: HTTP {stream.status}: {body[:200]}", file=sys.stderr)
                return 1
            for event in stream.sse().events(timeout=_remaining()):
                if event.id is not None:
                    last_seq = int(event.id)
                payload = _json.loads(event.data) if event.data else {}
                if event.event == "done":
                    state = payload.get("state", "?")
                    print(f"job {args.job_id} finished: {state}")
                    return 0 if state == "succeeded" else 1
                if event.event == "evicted":
                    break  # shed under load; reconnect from the cursor
                print(
                    f"  #{payload.get('seq', last_seq):<4}"
                    f" {event.event or 'event':<18} {payload.get('payload')}"
                )
                sys.stdout.flush()
            # Stream ended without a done event (worker died, eviction,
            # or the timeout guard tripped): resume unless out of time.
            if _timed_out():
                print(
                    f"timed out after {args.timeout}s waiting on job {args.job_id}",
                    file=sys.stderr,
                )
                return 1


def _cmd_jobs_watch(args: argparse.Namespace) -> int:
    """Poll a job until it reaches a terminal state, streaming its events."""
    import time as _time

    if args.url:
        return _watch_job_over_http(args)
    with _open_job_store(args) as store:
        deadline = None if args.timeout <= 0 else _time.monotonic() + args.timeout
        last_seq = 0
        while True:
            job = store.require(args.job_id)
            for event in store.events(job.id, after=last_seq):
                last_seq = event.seq
                print(f"  #{event.seq:<4} {event.kind:<18} {event.payload}")
            if job.terminal:
                _print_job(job, verbose=True)
                return 0 if job.state == "succeeded" else 1
            if deadline is not None and _time.monotonic() >= deadline:
                print(f"timed out after {args.timeout}s; job {job.id} is {job.state}", file=sys.stderr)
                return 1
            _time.sleep(args.interval)


def _cmd_jobs_cancel(args: argparse.Namespace) -> int:
    with _open_job_store(args) as store:
        job = store.cancel(args.job_id)
        _print_job(job)
        return 0


def _cmd_jobs_retry(args: argparse.Namespace) -> int:
    with _open_job_store(args) as store:
        job = store.retry(args.job_id)
        _print_job(job)
        return 0


def _cmd_jobs_run(args: argparse.Namespace) -> int:
    """Drain the queue in-process (no HTTP server): the CLI-side worker."""
    from .jobs import JobRunner, directory_session_provider

    root = Path(args.project).resolve()
    with _open_job_store(args) as store:
        runner = JobRunner(
            store,
            directory_session_provider(root),
            workers=args.workers,
            name="cli-jobs",
        )
        idle = runner.run_until_idle(timeout=args.timeout)
        stats = runner.stats.as_dict()
        print("  ".join(f"{key}={value}" for key, value in stats.items()))
        if not idle:
            print(f"queue not idle after {args.timeout}s", file=sys.stderr)
            return 1
        return 0 if stats["failed"] == 0 else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Live terminal dashboard over ``GET /service/telemetry``.

    ``--once`` prints a single snapshot and exits (scriptable); otherwise
    the command subscribes to the SSE feed and renders a frame per
    snapshot, differencing successive counters into rates.  Works
    identically against a single ``repro serve`` and a fleet router
    (whose payload is the fan-in aggregate plus per-worker blocks).
    """
    import json as _json
    import time as _time

    from .errors import TransportError
    from .fleet.transport import HttpClient
    from .obs.monitor import render_frame

    try:
        with HttpClient(args.url, timeout=max(args.interval * 4, 30.0)) as client:
            if args.once:
                snapshot = client.get_json("/service/telemetry")
                print(render_frame(snapshot))
                return 0
            stream = client.stream(
                f"/service/telemetry?stream=1&interval={args.interval:g}"
            )
            if not stream.ok:
                body = stream.read().decode("utf-8", "replace")
                print(f"error: HTTP {stream.status}: {body[:200]}", file=sys.stderr)
                return 1
            previous: dict | None = None
            previous_at: float | None = None
            frames = 0
            for event in stream.sse().events():
                if event.event != "telemetry":
                    continue
                snapshot = _json.loads(event.data)
                now = _time.monotonic()
                elapsed = None if previous_at is None else now - previous_at
                print(render_frame(snapshot, previous=previous, elapsed=elapsed))
                print()
                sys.stdout.flush()
                previous, previous_at = snapshot, now
                frames += 1
                if args.count and frames >= args.count:
                    return 0
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    # The feed ended server-side (shutdown): not an error for a dashboard.
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flordb",
        description="Query and maintain the FlorDB context of a project directory.",
    )
    parser.add_argument("--project", default=".", help="project root (directory containing .flor)")
    parser.add_argument("--projid", default=None, help="override the project id")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("names", help="list recorded log names")
    sub.set_defaults(func=_cmd_names)

    sub = subparsers.add_parser("versions", help="list version epochs")
    sub.set_defaults(func=_cmd_versions)

    sub = subparsers.add_parser("dataframe", help="print the pivoted view of log names")
    sub.add_argument("names", nargs="+", help="log names to pivot into columns")
    sub.add_argument("--latest", action="store_true", help="only rows of the newest run")
    sub.add_argument("--since", default=None, help="only runs with tstamp >= SINCE (pushed into SQLite)")
    sub.add_argument("--until", default=None, help="only runs with tstamp <= UNTIL (pushed into SQLite)")
    sub.add_argument("--max-rows", type=int, default=50)
    sub.set_defaults(func=_cmd_dataframe)

    sub = subparsers.add_parser("sql", help="run a read-only SQL statement")
    sub.add_argument("query")
    sub.add_argument("--names", nargs="*", default=None, help="pivot these names into a temp 'pivot' table first")
    sub.add_argument("--max-rows", type=int, default=50)
    sub.set_defaults(func=_cmd_sql)

    sub = subparsers.add_parser("stats", help="table row counts and storage summary")
    sub.set_defaults(func=_cmd_stats)

    sub = subparsers.add_parser("backfill", help="multiversion hindsight logging for a script")
    sub.add_argument("filename", help="script path relative to the project root (as recorded)")
    sub.add_argument("--source", default=None, help="file holding the new source (default: working copy)")
    sub.add_argument("--parallelism", choices=["serial", "process"], default="serial")
    sub.add_argument("--workers", type=int, default=4)
    sub.add_argument("--loop", default="epoch", help="the checkpointed loop, the only one --epoch restricts")
    sub.add_argument("--epoch", type=int, nargs="*", default=None, help="only replay these; stopping short of the last ends the replay")
    sub.add_argument(
        "--dry-run",
        action="store_true",
        help="print the propagation patch plan per version (statements injected,"
        " anchors, statements dropped as unparseable) without executing any replay",
    )
    sub.set_defaults(func=_cmd_backfill)

    sub = subparsers.add_parser("build", help="incrementally build a Makefile target")
    sub.add_argument("target", nargs="?", default=None, help="target to build (default: first in the Makefile)")
    sub.add_argument("--makefile", "-f", default="Makefile", help="Makefile path, relative to the project root")
    sub.add_argument("--jobs", "-j", type=int, default=1, help="run up to N independent targets in parallel")
    sub.add_argument("--force", action="store_true", help="rebuild every target regardless of staleness")
    sub.add_argument("--no-record", action="store_true", help="do not commit or record build_deps for this build")
    sub.set_defaults(func=_cmd_build)

    sub = subparsers.add_parser(
        "serve",
        help="serve the projects under --project (one subdirectory per tenant) over HTTP",
    )
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8230, help="TCP port (0 picks a free one)")
    sub.add_argument("--pool-capacity", type=int, default=8, help="max simultaneously open project shards")
    sub.add_argument("--flush-size", type=int, default=64, help="records coalesced per ingestion transaction")
    sub.add_argument("--flush-interval", type=float, default=0.5, help="seconds between interval-triggered flushes (<=0 disables)")
    sub.add_argument("--quiet", action="store_true", help="suppress per-request access logging")
    sub.add_argument(
        "--job-workers",
        type=int,
        default=0,
        help="embed N durable job workers draining the root's job queue (0 disables)",
    )
    sub.add_argument(
        "--backend",
        choices=("sqlite", "memory"),
        default="sqlite",
        help="storage backend per shard (memory keeps rows and blobs off disk entirely)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run a multi-process worker fleet: N worker processes routed by "
        "consistent project hash behind this supervisor (0 = single process)",
    )
    sub.add_argument(
        "--qos",
        action="store_true",
        help="enforce per-tenant admission control (rate/quota limits from the policy table)",
    )
    sub.add_argument(
        "--qos-policy",
        default=None,
        metavar="FILE",
        help="load a JSON policy document into the policy table at startup (implies --qos)",
    )
    sub.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured line per request to stderr "
        "(method path status latency_ms tenant) and count requests/latency "
        "in the telemetry registry",
    )
    sub.add_argument(
        "--access-log-sample",
        type=int,
        default=1,
        metavar="N",
        help="emit every Nth access-log line (metrics still see every request)",
    )
    # Internal fleet plumbing: the supervisor spawns each worker with these.
    sub.add_argument("--fleet-worker", default=None, help=argparse.SUPPRESS)
    sub.add_argument("--fleet-register", default=None, help=argparse.SUPPRESS)
    sub.add_argument("--fleet-heartbeat", type=float, default=1.0, help=argparse.SUPPRESS)
    sub.set_defaults(func=_cmd_serve)

    policy = subparsers.add_parser(
        "policy",
        help="inspect and edit the per-tenant QoS policy table under --project",
    )
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)

    sub = policy_sub.add_parser("show", help="print the policy table (or one tenant's resolved policy)")
    sub.add_argument("tenant", nargs="?", default=None, help="resolve this tenant instead of listing rules")
    sub.set_defaults(func=_cmd_policy_show)

    sub = policy_sub.add_parser("set", help="insert or update one policy rule (conflicts are rejected)")
    sub.add_argument("selector", help="exact tenant name, 'prefix*' pattern, or '*' (default fallback)")
    sub.add_argument("--rate", type=float, default=None, help="sustained requests/second (omit = unlimited)")
    sub.add_argument("--burst", type=float, default=None, help="token-bucket capacity (default: max(rate, 1))")
    sub.add_argument("--byte-quota", type=int, default=None, help="bytes admitted per window (omit = unlimited)")
    sub.add_argument("--window", type=float, default=None, help="byte-quota window in seconds (default 60)")
    sub.add_argument("--priority", default="normal", choices=("high", "normal", "low"), help="job priority class")
    sub.add_argument("--position", type=int, default=0, help="scan position (0 = keep existing / append)")
    sub.set_defaults(func=_cmd_policy_set)

    sub = policy_sub.add_parser("delete", help="remove one policy rule")
    sub.add_argument("selector")
    sub.set_defaults(func=_cmd_policy_delete)

    jobs = subparsers.add_parser(
        "jobs",
        help="durable background jobs for the projects under --project (see 'serve')",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    sub = jobs_sub.add_parser("submit", help="enqueue a backfill/replay job for one project")
    sub.add_argument("name", help="project (tenant) name under the root")
    sub.add_argument("filename", help="script path relative to the project root (as recorded)")
    sub.add_argument("--kind", choices=["backfill", "replay"], default="backfill")
    sub.add_argument("--source", default=None, help="file holding the new source (default: project working copy)")
    sub.add_argument("--versions", nargs="*", default=None, help="restrict to these version ids")
    sub.add_argument("--loop", default="epoch", help="the checkpointed loop, the only one --epoch restricts")
    sub.add_argument("--epoch", type=int, nargs="*", default=None, help="only replay these; stopping short of the last ends the replay")
    sub.add_argument("--priority", type=int, default=0, help="higher claims first")
    sub.add_argument("--max-attempts", type=int, default=3, help="retry budget before the job fails")
    sub.set_defaults(func=_cmd_jobs_submit)

    sub = jobs_sub.add_parser("status", help="print one job's state (and optionally its event trail)")
    sub.add_argument("job_id", type=int)
    sub.add_argument("--events", action="store_true", help="also print the job_events trail")
    sub.set_defaults(func=_cmd_jobs_status)

    sub = jobs_sub.add_parser("list", help="list recent jobs")
    sub.add_argument("--name", default=None, help="only jobs of this project")
    sub.add_argument("--state", default=None, help="only jobs in this state")
    sub.add_argument("--limit", type=int, default=20)
    sub.set_defaults(func=_cmd_jobs_list)

    sub = jobs_sub.add_parser("watch", help="stream a job's events until it reaches a terminal state")
    sub.add_argument("job_id", type=int)
    sub.add_argument("--interval", type=float, default=0.2, help="poll interval in seconds (store mode)")
    sub.add_argument("--timeout", type=float, default=120.0, help="give up after this many seconds (<=0 waits forever)")
    sub.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="watch over HTTP instead of the local store: subscribe to "
        "URL/jobs/<id>/tail (a serve instance or fleet router) and resume "
        "across stream drops via Last-Event-ID",
    )
    sub.set_defaults(func=_cmd_jobs_watch)

    sub = jobs_sub.add_parser("cancel", help="cancel a queued job (or flag a running one)")
    sub.add_argument("job_id", type=int)
    sub.set_defaults(func=_cmd_jobs_cancel)

    sub = jobs_sub.add_parser("retry", help="re-queue a failed/cancelled job with a fresh budget")
    sub.add_argument("job_id", type=int)
    sub.set_defaults(func=_cmd_jobs_retry)

    sub = jobs_sub.add_parser("run", help="drain the job queue in-process (no HTTP server)")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--timeout", type=float, default=300.0, help="stop draining after this many seconds")
    sub.set_defaults(func=_cmd_jobs_run)

    sub = subparsers.add_parser(
        "monitor",
        help="live terminal dashboard over a running service or fleet router",
    )
    sub.add_argument(
        "--url",
        default="http://127.0.0.1:8230",
        help="base url of the serve instance or fleet router (default %(default)s)",
    )
    sub.add_argument("--interval", type=float, default=2.0, help="seconds between frames")
    sub.add_argument("--count", type=int, default=0, help="exit after N frames (0 = run until interrupted)")
    sub.add_argument("--once", action="store_true", help="print one snapshot and exit")
    sub.set_defaults(func=_cmd_monitor)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
