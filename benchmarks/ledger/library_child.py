"""The ``library_hindsight`` workload: the paper's loop, no HTTP.

Run as a script this is the program's child process for the untraced run:
it reads one JSON command per line on stdin (``setup``, then ``run``),
answers each with one JSON line, and exits at end of input, so the harness
can read the child's CPU and memory around exactly the measured window.  The traced and smoke
runs use :class:`LibraryRunner` directly, inside the harness.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from repro import HindsightEngine, ProjectConfig, Session, flor  # noqa: E402
from repro.core.session import active_session  # noqa: E402
from workloads import LIBRARY_HINDSIGHT, LibrarySpec, script_source  # noqa: E402

PHASES = ("record", "backfill", "query_cold", "query_warm")


def frame_rows(records: list[dict], hs_name: str) -> list[list]:
    """A served frame as sorted ``[version, epoch, step, loss, hs]`` rows;
    versions are numbered by the order their runs were recorded."""
    stamps = sorted({r["tstamp"] for r in records})
    ordinal = {stamp: n for n, stamp in enumerate(stamps)}
    return sorted(
        [ordinal[r["tstamp"]], r["epoch"], r["step"], r["loss"], r.get(hs_name)] for r in records
    )


class LibraryRunner:
    def __init__(self, root: Path, seed: int, spec: LibrarySpec = LIBRARY_HINDSIGHT, tracer=None):
        self.root = Path(root)
        self.seed = seed
        self.spec = spec
        self.tracer = tracer
        self.projects = 0
        self.latencies: list[float] = []
        self.rounds: list[int] = []  # the index within its project of each measured round
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self.attempted = 0
        self.failures: list[str] = []
        self.log_rows = 0
        self.expected_log_rows = 0
        self.counters = {
            "transactions": 0, "written_rows": 0,
            "fast_hits": 0, "warm_hits": 0, "incremental_refreshes": 0, "cold_builds": 0,
        }
        self.final: dict | None = None
        self._session = None

    # ------------------------------------------------------------ one project
    @contextmanager
    def _phase(self, name: str):
        frame = self.tracer.open(f"phase.{name}") if self.tracer is not None else None
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] += time.perf_counter() - started
            if frame is not None:
                self.tracer.close(frame)

    def _record(self, session, version: int) -> str:
        source = script_source(self.spec, self.seed, version)
        filename = self.spec.filename
        (Path(session.config.root) / filename).write_text(source)
        namespace = {"__name__": "__main__", "__file__": filename, "flor": flor}
        with active_session(session):
            exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - the workload's own script
            return session.commit(f"version {version}")

    def _open_project(self):
        name = f"p{self.projects:04d}"
        self.projects += 1
        session = Session(ProjectConfig(self.root / name, name))
        self._session = session
        session.track(self.spec.filename)
        vids = [self._record(session, v) for v in range(self.spec.base_versions)]
        return session, HindsightEngine(session), vids

    def _close_project(self, session, versions: int, rounds_done: int) -> None:
        spec = self.spec
        self.log_rows += session.logs.count()
        self.expected_log_rows += (
            versions * spec.rows_per_version + rounds_done * spec.window * spec.epochs
        )
        for key, value in session.flusher.stats.as_dict().items():
            if key in self.counters:
                self.counters[key] += value
        for key, value in session.query.stats.as_dict().items():
            if key in self.counters:
                self.counters[key] += value
        self._session = None
        session.close()

    def _round(self, session, engine, vids: list[str], index: int, measured: bool) -> None:
        spec = self.spec
        version = spec.base_versions + index
        hs_name = f"hs_{index}"
        root = self.tracer.root("harness.round") if self.tracer is not None else nullcontext()
        started = time.perf_counter()
        problems = []
        with root:
            with self._phase("record"):
                vids.append(self._record(session, version))
            with self._phase("backfill"):
                report = engine.backfill(
                    spec.filename,
                    script_source(spec, self.seed, version, hindsight_round=index),
                    versions=vids[-spec.window :],
                    parallelism="serial",
                )
            with self._phase("query_cold"):
                cold = session.dataframe("loss", hs_name)
            with self._phase("query_warm"):
                warm = session.dataframe("loss", hs_name)
        elapsed = time.perf_counter() - started
        if report.new_records != spec.window * spec.epochs:
            problems.append(
                f"backfill added {report.new_records} rows, expected {spec.window * spec.epochs}"
            )
        if report.versions_replayed != spec.window:
            errors = [v.error or (v.replay and v.replay.error) for v in report.versions]
            problems.append(f"replayed {report.versions_replayed}/{spec.window} versions: {errors}")
        rows = len(vids) * spec.epochs * spec.steps
        if len(cold) != rows or len(warm) != rows:
            problems.append(f"frame has {len(cold)}/{len(warm)} rows, expected {rows}")
        if not measured:
            if problems:
                raise RuntimeError(f"warm-up round failed: {problems}")
            return
        self.attempted += 1
        if problems:
            self.failures.extend(problems)
            return
        self.latencies.append(elapsed)
        self.rounds.append(index)
        self.final = {
            "versions": len(vids),
            "round": index,
            "rows": frame_rows(warm.to_records(), hs_name),
        }

    # ----------------------------------------------------------------- phases
    def warm_up(self) -> None:
        """A fixed count of whole project lives, never a fixed time."""
        for _ in range(self.spec.warm_projects):
            session, engine, vids = self._open_project()
            for index in range(self.spec.rounds):
                self._round(session, engine, vids, index, measured=False)
            self._close_project(session, len(vids), self.spec.rounds)
        for key in self.counters:
            self.counters[key] = 0
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)

    def run(self, seconds: float) -> dict:
        started = time.perf_counter()
        deadline = started + seconds
        session = engine = vids = None
        index = 0
        while time.perf_counter() < deadline:
            if session is None:
                session, engine, vids = self._open_project()
                index = 0
            self._round(session, engine, vids, index, measured=True)
            index += 1
            if index == self.spec.rounds:
                self._close_project(session, len(vids), index)
                session = None
        window = time.perf_counter() - started
        drain_started = time.perf_counter()
        if session is not None:
            self._close_project(session, len(vids), index)
        drain = time.perf_counter() - drain_started
        if self.log_rows != self.expected_log_rows:
            self.failures.append(
                f"projects hold {self.log_rows} log rows, expected {self.expected_log_rows}"
            )
        return {
            "window_s": window,
            "drain_s": drain,
            "latencies": self.latencies,
            "rounds": self.rounds,
            "attempted": self.attempted,
            "failures": self.failures,
            "phase_seconds": self.phase_seconds,
            "projects": self.projects,
            "log_rows": self.log_rows,
            "counters": self.counters,
            "final": self.final,
        }

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None


def main() -> int:
    runner: LibraryRunner | None = None
    for line in sys.stdin:
        command = json.loads(line)
        try:
            if command["cmd"] == "setup":
                runner = LibraryRunner(Path(command["root"]), command["seed"])
                runner.warm_up()
                reply: dict = {"ok": True}
            elif command["cmd"] == "run":
                reply = runner.run(command["seconds"])
            else:
                reply = {"error": f"unknown command {command['cmd']!r}"}
        except Exception as exc:  # noqa: BLE001 - reported to the harness, which fails the run
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if runner is not None:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
