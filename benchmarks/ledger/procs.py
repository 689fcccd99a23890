"""The system under test as child processes, and what /proc says about them.

Untraced runs always put the program in its own process tree
(``python -m repro.cli serve ...``, or ``library_child.py`` for the no-HTTP
workload) so that CPU and memory are the program's alone.  The traced and
smoke runs host the same server on a thread of the harness instead
(:class:`InProcessServe`), where the tracer's wrappers can see it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_DIR = REPO_ROOT / "src"

_BANNER = re.compile(r"at http://([\d.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ProgramError(RuntimeError):
    """The program under test did not start, answer or stop as expected."""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + extra if extra else "")
    return env


# ---------------------------------------------------------------------------
# /proc
# ---------------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU consumed so far by ``pids`` (exited threads included).

    Read from each process's CPU-time clock (nanoseconds, what
    ``clock_getcpuclockid`` names); /proc/<pid>/stat counts the same time in
    10 ms ticks and is the fallback.
    """
    total = 0.0
    for pid in pids:
        try:
            total += time.clock_gettime_ns((~pid << 3) | 2) / 1e9
        except OSError:
            fields = _stat_fields(pid)
            if fields is not None:
                total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS  # utime, stime
    return total


def peak_rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total += int(match.group(1)) * 1024
    return total


def _ended(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is None or fields[0] in ("Z", "X")


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class ChildProgram:
    """One spawned program in its own process group."""

    def __init__(self, argv: list[str], log_dir: Path, *, pipes: bool = False):
        log_dir.mkdir(parents=True, exist_ok=True)
        self.stdout_path = log_dir / "stdout.txt"
        self._stderr = open(log_dir / "stderr.txt", "wb")
        self._stdout = None if pipes else open(self.stdout_path, "wb")
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipes else self._stdout,
            stderr=self._stderr,
            env=program_env(),
            cwd=str(REPO_ROOT),
            start_new_session=True,
        )
        self._tree: list[int] = [self.process.pid]

    @property
    def pid(self) -> int:
        return self.process.pid

    def tree(self) -> list[int]:
        self._tree = sorted(set(self._tree) | set(process_tree(self.pid)))
        return self._tree

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.tree())

    def peak_rss_bytes(self) -> int:
        return peak_rss_bytes(self.tree())

    def stderr_tail(self) -> str:
        self._stderr.flush()
        try:
            return Path(self._stderr.name).read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def _ask_to_exit(self) -> None:
        self.process.send_signal(signal.SIGTERM)

    def stop(self, *, timeout: float = 30.0) -> int | None:
        """Ask the program to exit, wait, then make sure nothing of its tree
        is left; returns the exit code."""
        tree = self.tree()
        code: int | None = None
        if self.process.poll() is None:
            self._ask_to_exit()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            code = self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not all(_ended(pid) for pid in tree):
            time.sleep(0.01)
        for stream in (self.process.stdin, self.process.stdout, self._stdout, self._stderr):
            if stream is not None:
                stream.close()
        return code


class ServeProcess(ChildProgram):
    """``python -m repro.cli --project <root> serve --port 0 --quiet ...``."""

    def __init__(self, root: Path, log_dir: Path, workers: int = 0):
        self.root = root
        argv = [
            sys.executable, "-u", "-m", "repro.cli", "--project", str(root),
            "serve", "--port", "0", "--quiet",
        ]
        if workers:
            argv += ["--workers", str(workers)]
        super().__init__(argv, log_dir)
        self.address = self._wait_banner()

    def _wait_banner(self, timeout: float = 90.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.stdout_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        tail = self.stderr_tail()
        self.stop()
        raise ProgramError(f"serve did not print its address: {tail}")


class LibraryProcess(ChildProgram):
    """``library_child.py``: one JSON command per line in, one JSON line out."""

    def __init__(self, log_dir: Path):
        super().__init__([sys.executable, "-u", str(HERE / "library_child.py")], log_dir, pipes=True)

    def _ask_to_exit(self) -> None:
        self.process.stdin.close()  # end of input is the child's cue

    def call(self, command: dict) -> dict:
        try:
            self.process.stdin.write(json.dumps(command).encode("utf-8") + b"\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
        except OSError as exc:
            raise ProgramError(f"library child went away: {exc}: {self.stderr_tail()}") from exc
        if not line:
            raise ProgramError(f"library child exited: {self.stderr_tail()}")
        reply = json.loads(line)
        if "error" in reply:
            raise ProgramError(f"library child failed: {reply['error']}")
        return reply


# ---------------------------------------------------------------------------
# The same server on a thread of this process (traced and smoke runs)
# ---------------------------------------------------------------------------


class InProcessServe:
    """``repro serve`` (or ``serve --workers N``) hosted by the harness.

    With workers the router and supervisor live here and the workers stay
    subprocesses; ``worker_trace_dir`` makes each worker start through
    ``traced_worker.py``, which writes its spans there when it exits.
    """

    def __init__(self, root: Path, *, workers: int = 0, worker_trace_dir: Path | None = None):
        from repro.service import FlorService
        from repro.service import server as server_module

        self.root = root
        self._workers = workers
        self._undo = None
        if workers == 0:
            self._service = FlorService(root)
            self._server = server_module.make_server(self._service.app(), "127.0.0.1", 0)
            host, port = self._server.server_address[:2]
            self.address = (str(host), int(port))
            self._thread = threading.Thread(
                target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
            )
            self._thread.start()
            return
        from repro.fleet import run as fleet_run

        if worker_trace_dir is not None:
            self._undo = _launch_workers_traced(fleet_run, worker_trace_dir)
        self._shutdown = threading.Event()
        ready = threading.Event()
        self._failure: BaseException | None = None

        def on_ready(host: str, port: int, _supervisor) -> None:
            self.address = (host, port)
            ready.set()

        def target() -> None:
            try:
                fleet_run.serve_fleet(
                    root, workers=workers, host="127.0.0.1", port=0, quiet=True,
                    ready=on_ready, shutdown_event=self._shutdown,
                )
            except BaseException as exc:  # noqa: BLE001 - reported by the waiter below
                self._failure = exc
                ready.set()

        self._thread = threading.Thread(target=target, daemon=True)
        self._thread.start()
        ready.wait(timeout=90)
        if self._failure is not None or not ready.is_set():
            self.stop()
            raise ProgramError(f"in-process fleet did not start: {self._failure}")

    def cpu_seconds(self) -> float:
        return 0.0  # shares the harness's process; only subprocess runs report CPU

    def peak_rss_bytes(self) -> int:
        return 0

    def stop(self) -> None:
        if self._workers == 0:
            self._server.shutdown()
            self._thread.join(timeout=10)
            self._server.server_close()
            self._service.close()
            return
        self._shutdown.set()
        self._thread.join(timeout=60)
        if self._undo is not None:
            self._undo()


def _launch_workers_traced(fleet_run, trace_dir: Path):
    """Make ``serve_fleet`` start its workers through ``traced_worker.py``."""
    original = fleet_run.default_worker_argv
    launcher = str(HERE / "traced_worker.py")

    def traced_worker_argv(*args, **kwargs):
        argv_for = original(*args, **kwargs)

        def wrapped(worker_id: str, register_url: str) -> list[str]:
            argv = argv_for(worker_id, register_url)
            # [python, "-m", "repro.cli", ...] -> [python, launcher, spans file, ...]
            cli_args = argv[argv.index("repro.cli") + 1 :]
            return [argv[0], launcher, str(trace_dir / f"worker-{worker_id}.spans.jsonl"), *cli_args]

        return wrapped

    fleet_run.default_worker_argv = traced_worker_argv

    def undo() -> None:
        fleet_run.default_worker_argv = original

    return undo
