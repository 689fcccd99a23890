"""Workload generators for benchmarks and stress tests.

Four workload shapes cover the paper's evaluation surface:

* :class:`LoggingWorkload` — raw log-record volume (dataframe query latency, T5),
* :class:`TrainingWorkload` — the Figure 5 training loop at configurable scale
  (record overhead T1, replay speedup T2, checkpoint ablation A1),
* :class:`VersionedScriptWorkload` — a script evolved over many committed
  versions with refactorings (propagation T3/A2, parallel replay T4),
* :class:`PipelineWorkload` — the Make-driven multi-stage pipeline
  (figures F2/F4, incremental build T6),
* :class:`WideDagWorkload` — a synthetic fan-out/fan-in build DAG whose
  stages are pure compute, isolating the parallel scheduler (T7),
* :class:`ServiceWorkload` — many concurrent clients appending through the
  multi-tenant HTTP service layer (service throughput T8),
* :class:`BackfillJobWorkload` — a multi-tenant root whose projects each
  need a hindsight backfill, driven either inline or through the durable
  job queue (job orchestration T11).
"""

from __future__ import annotations

import textwrap
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..config import ProjectConfig
from ..core.session import Session
from ..relational.records import LogRecord, LoopRecord


def populate_logs(
    session: Session,
    *,
    runs: int = 3,
    loops_per_run: int = 10,
    values_per_loop: int = 5,
    filename: str = "train.py",
) -> int:
    """Bulk-insert synthetic log records directly (no script execution).

    Returns the number of log rows written.  Used where benchmarks need a
    large ``logs`` table quickly without paying training costs.
    """
    total = 0
    for run in range(runs):
        tstamp = f"2025-01-{run + 1:02d}T00:00:00.{run:06d}"
        loops = []
        logs = []
        for i in range(loops_per_run):
            ctx_id = i + 1
            loops.append(
                LoopRecord(
                    projid=session.projid,
                    tstamp=tstamp,
                    filename=filename,
                    ctx_id=ctx_id,
                    parent_ctx_id=0,
                    loop_name="epoch",
                    loop_iteration=i,
                    iteration_value=str(i),
                )
            )
            for v in range(values_per_loop):
                logs.append(
                    LogRecord.create(
                        projid=session.projid,
                        tstamp=tstamp,
                        filename=filename,
                        ctx_id=ctx_id,
                        value_name=f"metric_{v}",
                        value=run * 0.1 + i + v * 0.01,
                    )
                )
                total += 1
        session.loops.add_many(loops)
        session.logs.add_many(logs)
    return total


@dataclass
class LoggingWorkload:
    """Pure logging volume: ``runs × loops × values`` log records."""

    runs: int = 3
    loops_per_run: int = 50
    values_per_loop: int = 4

    def populate(self, session: Session) -> int:
        return populate_logs(
            session,
            runs=self.runs,
            loops_per_run=self.loops_per_run,
            values_per_loop=self.values_per_loop,
        )

    @property
    def record_count(self) -> int:
        return self.runs * self.loops_per_run * self.values_per_loop


@dataclass
class TrainingWorkload:
    """The Figure 5 training loop at a configurable scale."""

    samples: int = 240
    features: int = 12
    classes: int = 3
    epochs: int = 4
    batch_size: int = 32
    hidden: int = 32
    seed: int = 0

    def datasets(self):
        from ..ml.dataset import train_test_split
        from ..ml.train import make_synthetic_classification

        data = make_synthetic_classification(
            samples=self.samples, features=self.features, classes=self.classes, seed=self.seed
        )
        return train_test_split(data, test_fraction=0.25, seed=self.seed)

    def run(self, session: Session, use_flor: bool = True):
        """Run one instrumented (or baseline) training pass under ``session``."""
        from ..core.session import active_session
        from ..ml.train import TrainingConfig, train_classifier

        train_data, test_data = self.datasets()
        config = TrainingConfig(
            hidden=self.hidden,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        with active_session(session):
            result = train_classifier(train_data, test_data, config, use_flor_args=use_flor)
            if use_flor:
                session.commit("training run")
        return result


#: Template for the versioned training script; ``{extra_log}`` is the line the
#: developer adds in the latest version (and wishes they had added earlier).
_SCRIPT_TEMPLATE = textwrap.dedent(
    '''
    """Synthetic training script, version {version}."""
    {padding}
    lr = flor.arg("lr", {lr})
    state = {{"w": 0.0, "steps": 0}}
    with flor.checkpointing(state=state):
        for epoch in flor.loop("epoch", range({epochs})):
            for step in flor.loop("step", range({steps})):
                state["w"] += lr / (1 + epoch + step)
                state["steps"] += 1
                flor.log("loss", 1.0 / (1.0 + state["w"]))
    {extra_log}

    def summarize(final_state):
        # Post-training reporting kept across every revision of the script;
        # its lines sit below the loop so absolute line numbers in newer
        # (longer) versions point past the loop body in older versions.
        return {{"w": final_state["w"], "steps": final_state["steps"]}}


    summary = summarize(state)
    flor.log("final_w", summary["w"])
    flor.log("total_steps", summary["steps"])
    '''
).strip()


@dataclass
class VersionedScriptWorkload:
    """A script evolved across ``versions`` committed runs.

    Each version shifts hyperparameters and (optionally) refactors the file
    by adding comment padding, which exercises the propagation engine's
    anchor matching.  ``hindsight_source`` returns the latest source with a
    new per-epoch log statement to backfill.
    """

    versions: int = 4
    epochs: int = 5
    steps: int = 4
    refactor: bool = True
    filename: str = "train.py"

    def source_for_version(self, version: int) -> str:
        padding = ""
        if self.refactor and version > 0:
            padding = "\n".join(
                f"# revision note {i}: tuned hyperparameters after review" for i in range(version * 2)
            ) + "\n"
        return _SCRIPT_TEMPLATE.format(
            version=version,
            padding=padding,
            lr=0.01 * (version + 1),
            epochs=self.epochs,
            steps=self.steps,
            extra_log="",
        )

    def hindsight_source(self) -> str:
        padding = ""
        if self.refactor and self.versions > 1:
            padding = "\n".join(
                f"# revision note {i}: tuned hyperparameters after review"
                for i in range((self.versions - 1) * 2)
            ) + "\n"
        source = _SCRIPT_TEMPLATE.format(
            version=self.versions - 1,
            padding=padding,
            lr=0.01 * self.versions,
            epochs=self.epochs,
            steps=self.steps,
            extra_log="",
        )
        # The statement the developer adds after the fact: per-epoch weight.
        return source.replace(
            'flor.log("loss", 1.0 / (1.0 + state["w"]))',
            'flor.log("loss", 1.0 / (1.0 + state["w"]))\n'
            '            flor.log("weight", state["w"])',
        )

    def record_version(self, session: Session, version: int) -> str:
        """Execute and commit one run of ``version``'s source; returns its version id."""
        from ..core.api import flor as flor_facade
        from ..core.session import active_session

        source = self.source_for_version(version)
        session.track(self.filename)
        (Path(session.config.root) / self.filename).write_text(source)
        namespace = {"__name__": "__main__", "__file__": self.filename, "flor": flor_facade}
        with active_session(session):
            exec(compile(source, self.filename, "exec"), namespace)  # noqa: S102
            return session.commit(f"version {version}")

    def record_all_versions(self, session: Session) -> list[str]:
        """Execute and commit every version; returns the version ids."""
        return [self.record_version(session, version) for version in range(self.versions)]


_PIPELINE_MAKEFILE = textwrap.dedent(
    """
    process_pdfs: pdf_demux.py
    \t@python pdf_demux.py
    \t@touch process_pdfs

    featurize: process_pdfs featurize.py
    \t@python featurize.py
    \t@touch featurize

    train: featurize train.py
    \t@python train.py
    \t@touch train

    infer: train infer.py
    \t@python infer.py
    \t@touch infer

    run: featurize infer
    \t@echo "Starting app..."
    """
).strip()


@dataclass
class PipelineWorkload:
    """The demo pipeline as a Makefile plus Python callables per stage."""

    documents: int = 4
    max_pages: int = 6
    epochs: int = 2
    seed: int = 0

    def makefile_text(self) -> str:
        return _PIPELINE_MAKEFILE

    def build_executor(self, session: Session, workdir: Path | str):
        """An executor whose targets are bound to in-process pipeline stages."""
        from ..build.executor import BuildExecutor, CallableRunner
        from ..build.makefile import parse_makefile
        from ..pipeline import PdfPipeline

        pipeline = PdfPipeline(
            session,
            documents=self.documents,
            max_pages=self.max_pages,
            epochs=self.epochs,
            seed=self.seed,
        )
        runner = CallableRunner(
            {
                "process_pdfs": pipeline.process_pdfs,
                "featurize": pipeline.featurize,
                "train": pipeline.train,
                "infer": pipeline.infer,
                "run": pipeline.serve,
            }
        )
        executor = BuildExecutor(
            parse_makefile(self.makefile_text()),
            workdir=workdir,
            runner=runner,
            session=session,
        )
        return executor, pipeline


@dataclass
class WideDagWorkload:
    """A fan-out/fan-in build DAG: ``width`` independent stages, one goal.

    Every ``stage_NN`` target depends on a shared ``gen.py`` source and the
    ``all`` goal fans them back in.  Stages burn ``stage_seconds`` of wall
    clock in a callable that sleeps (I/O-shaped work, releasing the GIL), so
    the workload isolates scheduler behaviour: a perfect ``jobs=N`` executor
    finishes in ``width / N`` stage-times.  Used by the T7 benchmark to
    demonstrate parallel speedup.
    """

    width: int = 12
    stage_seconds: float = 0.02

    def stage_names(self) -> list[str]:
        return [f"stage_{i:02d}" for i in range(self.width)]

    def makefile_text(self) -> str:
        lines = [f"all: {' '.join(self.stage_names())}", "\t@echo all stages built", ""]
        for name in self.stage_names():
            lines.append(f"{name}: gen.py")
            lines.append(f"\t@touch {name}")
            lines.append("")
        return "\n".join(lines)

    def build_executor(self, workdir: Path | str, *, session: Session | None = None, jobs: int = 1):
        """An executor whose stages sleep for ``stage_seconds`` in-process."""
        import time as _time

        from ..build.executor import BuildExecutor, CallableRunner
        from ..build.makefile import parse_makefile

        def make_stage(name: str):
            def stage() -> str:
                _time.sleep(self.stage_seconds)
                return name

            return stage

        callables = {name: make_stage(name) for name in self.stage_names()}
        callables["all"] = lambda: None
        return BuildExecutor(
            parse_makefile(self.makefile_text()),
            workdir=workdir,
            runner=CallableRunner(callables),
            session=session,
            jobs=jobs,
        )


@dataclass
class ServiceLoadReport:
    """Outcome of one :class:`ServiceWorkload` run."""

    requests: int
    records: int
    seconds: float
    latencies: list[float] = field(default_factory=list, repr=False)
    errors: int = 0
    #: ``429`` responses honored with backoff — deliberate admission-control
    #: throttling, reported separately from failures.
    throttles: int = 0

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.seconds if self.seconds else float("inf")

    @property
    def records_per_second(self) -> float:
        return self.records / self.seconds if self.seconds else float("inf")

    def percentile(self, p: float) -> float:
        """Latency percentile ``p`` in [0, 100] (nearest-rank) in seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


@dataclass
class ServiceWorkload:
    """Concurrent append traffic against the multi-tenant service layer.

    ``clients`` threads each issue ``requests_per_client`` bulk-append
    requests of ``records_per_request`` log records, spread round-robin
    over ``projects`` tenants.  Drive it with any client exposing the
    :class:`~repro.webapp.framework.TestClient` ``post`` signature — the
    in-process test client for hermetic benchmarks, or :meth:`run_http`
    against a live ``repro serve`` for end-to-end runs.  Per-request
    latencies are collected so the T8/T14 benchmarks can report p50/p99
    alongside throughput.
    """

    clients: int = 8
    requests_per_client: int = 25
    records_per_request: int = 1
    projects: int = 1
    value_name: str = "metric"
    filename: str = "load.py"
    #: ``429`` handling: retry up to ``max_retries`` times per request with
    #: capped exponential backoff, honoring the server's ``Retry-After``
    #: hint when it is longer than the schedule says.  A throttle is not a
    #: failure — it is the admission layer doing its job — so throttled
    #: attempts count in ``ServiceLoadReport.throttles``, and only a request
    #: that exhausts its retries still throttled (or fails outright) counts
    #: as an error.
    max_retries: int = 6
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def project_names(self) -> list[str]:
        return [f"tenant_{i:02d}" for i in range(self.projects)]

    @property
    def total_records(self) -> int:
        return self.clients * self.requests_per_client * self.records_per_request

    @staticmethod
    def _retry_after(headers) -> float:
        """The ``Retry-After`` hint in seconds (0 when absent/garbled)."""
        for key, value in (headers or {}).items():
            if key.lower() == "retry-after":
                try:
                    return max(float(value), 0.0)
                except (TypeError, ValueError):
                    return 0.0
        return 0.0

    def run(self, client) -> ServiceLoadReport:
        """Drive ``client`` from ``clients`` threads; returns the report."""
        names = self.project_names()
        latencies: list[list[float]] = [[] for _ in range(self.clients)]
        errors = [0] * self.clients
        throttles = [0] * self.clients
        barrier = threading.Barrier(self.clients + 1)

        def worker(worker_id: int) -> None:
            project = names[worker_id % len(names)]
            url = f"/projects/{project}/logs"
            barrier.wait()
            for i in range(self.requests_per_client):
                payload = {
                    "filename": self.filename,
                    "records": [
                        {
                            "name": self.value_name,
                            "value": worker_id + i * 0.001 + j * 0.000001,
                            "ctx_id": i,
                        }
                        for j in range(self.records_per_request)
                    ],
                }
                attempt = 0
                while True:
                    started = time.perf_counter()
                    try:
                        response = client.post(url, json_body=payload)
                    except Exception:  # noqa: BLE001 - a dead worker must not
                        # silently deflate the measured request count
                        latencies[worker_id].append(time.perf_counter() - started)
                        errors[worker_id] += 1
                        break
                    if response.status == 429 and attempt < self.max_retries:
                        # Throttled: honor the server's hint, floored by the
                        # exponential schedule and capped so one slow tenant
                        # never parks a thread for a whole quota window.
                        throttles[worker_id] += 1
                        delay = min(
                            self.backoff_cap,
                            max(
                                self._retry_after(response.headers),
                                self.backoff_base * (2**attempt),
                            ),
                        )
                        time.sleep(delay)
                        attempt += 1
                        continue
                    # Only the admitted (or terminally failed) attempt's
                    # latency is recorded — backoff sleeps are not service
                    # latency.
                    latencies[worker_id].append(time.perf_counter() - started)
                    if not response.ok:
                        errors[worker_id] += 1
                    break

        threads = [
            threading.Thread(target=worker, args=(worker_id,), daemon=True)
            for worker_id in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        return ServiceLoadReport(
            requests=self.clients * self.requests_per_client,
            records=self.total_records,
            seconds=seconds,
            latencies=[latency for bucket in latencies for latency in bucket],
            errors=sum(errors),
            throttles=sum(throttles),
        )

    def run_http(self, base_url: str, *, timeout: float = 60.0) -> ServiceLoadReport:
        """Drive a live server over keep-alive HTTP.

        :class:`~repro.fleet.transport.HttpClient` keeps one persistent
        connection per thread, so each of the ``clients`` workload threads
        reuses a single socket for all of its requests instead of paying
        connection setup per request.
        """
        from ..fleet.transport import HttpClient

        with HttpClient(base_url, timeout=timeout) as client:
            return self.run(client)


@dataclass
class BackfillJobWorkload:
    """A service root of ``projects`` tenants, each wanting a backfill.

    Every tenant gets its own committed version history (delegating to
    :class:`VersionedScriptWorkload`) that never logged ``weight``; the
    hindsight source adds the per-epoch statement.  The T11 benchmark
    drives the same work-list two ways — inline serial
    ``HindsightEngine.backfill`` calls versus one durable job per tenant
    drained by a :class:`~repro.jobs.JobRunner` pool — and the crash
    scenario interrupts a job mid-backfill to measure that resume replays
    only the versions without a progress checkpoint.
    """

    projects: int = 2
    versions: int = 3
    epochs: int = 4
    steps: int = 2
    refactor: bool = True
    filename: str = "train.py"

    def script_workload(self) -> VersionedScriptWorkload:
        return VersionedScriptWorkload(
            versions=self.versions,
            epochs=self.epochs,
            steps=self.steps,
            refactor=self.refactor,
            filename=self.filename,
        )

    def project_names(self) -> list[str]:
        return [f"tenant_{i:02d}" for i in range(self.projects)]

    @property
    def expected_new_records(self) -> int:
        """Backfilled ``weight`` rows per project (one per epoch × step × version)."""
        return self.versions * self.epochs * self.steps

    def hindsight_source(self) -> str:
        return self.script_workload().hindsight_source()

    def populate(self, root: Path | str) -> dict[str, list[str]]:
        """Create every tenant under ``root``; returns ``{project: [vids]}``."""
        root = Path(root)
        vids: dict[str, list[str]] = {}
        workload = self.script_workload()
        for name in self.project_names():
            with Session(ProjectConfig(root / name, name)) as session:
                vids[name] = workload.record_all_versions(session)
        return vids

    def job_payload(self) -> dict:
        return {"filename": self.filename, "new_source": self.hindsight_source()}

    def submit_all(self, store, **submit_kwargs) -> list[int]:
        """Enqueue one backfill job per tenant; returns the job ids."""
        payload = self.job_payload()
        return [
            store.submit(name, "backfill", payload, **submit_kwargs).id
            for name in self.project_names()
        ]

    def backfill_inline(self, root: Path | str) -> int:
        """The baseline: serial in-process backfill per tenant (no jobs).

        Returns the total number of newly materialized log records.
        """
        from ..core.hindsight import HindsightEngine

        root = Path(root)
        new_source = self.hindsight_source()
        total = 0
        for name in self.project_names():
            with Session(ProjectConfig(root / name, name)) as session:
                report = HindsightEngine(session).backfill(self.filename, new_source=new_source)
                total += report.new_records
        return total
