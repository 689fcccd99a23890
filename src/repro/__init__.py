"""Reproduction of FlorDB (CIDR 2025): incremental context maintenance for ML.

Typical usage mirrors the paper::

    from repro import flor

    for epoch in flor.loop("epoch", range(5)):
        ...
        flor.log("loss", loss)
    flor.commit()

    df = flor.dataframe("loss")          # pivoted view across all versions

Subpackages
-----------
``repro.core``        the Flor API, record/replay runtime and hindsight logging
``repro.relational``  the SQLite data model of Figure 1
``repro.dataframe``   a mini dataframe engine (pandas substitute)
``repro.versioning``  a content-addressed version store (git substitute)
``repro.build``       a Make-like incremental build substrate (make substitute):
                      Makefile parsing, a validated build DAG, staleness-aware
                      execution with in-process or shell recipes, a parallel
                      wavefront scheduler (``jobs=N``), and per-version
                      recording of the dependency DAG into ``build_deps``
``repro.ml``          a NumPy training substrate (torch substitute)
``repro.docs``        a synthetic document corpus and featurization
``repro.mlops``       feature-store / model-registry / label-store roles
``repro.webapp``      the human-in-the-loop feedback web application
``repro.workloads``   synthetic workload generators for the benchmarks
``repro.runtime``     the record-path runtime: tuple staging with deferred
                      value encoding, a double-buffered background flusher
                      (single coalesced transaction per drain, bounded
                      memory with backpressure), and
                      asynchronous checkpoint serialization with a drain
                      barrier before restore/commit/close
``repro.service``     multi-tenant HTTP service layer: sharded database
                      pool (one SQLite file per project, LRU handle cache),
                      batched ingestion (one batch per flush, riding the
                      shard's background flusher), and
                      append/commit/dataframe/SQL endpoints behind the
                      ``serve`` CLI subcommand
``repro.jobs``        durable background job orchestration: a SQLite-backed
                      queue (lease + heartbeat, bounded retries with
                      backoff, per-version progress checkpoints) and a
                      worker pool executing hindsight backfills/replays
                      under supervision — over HTTP, embedded in ``serve
                      --job-workers``, or via the ``jobs`` CLI group

The ``flordb`` command line (:mod:`repro.cli`) covers the shell side:
``names``/``versions``/``dataframe``/``sql``/``stats`` for queries,
``backfill`` for hindsight logging, ``build`` for incremental Makefile
builds, and ``serve`` for the multi-tenant service.  The README at the
repository root walks through install, the quickstart above, and how to
run the tier-1 tests and benchmarks.
"""

from .config import ProjectConfig
from .core.api import FlorFacade, flor
from .core.hindsight import BackfillReport, HindsightEngine
from .core.replay import ReplayPlan
from .core.session import Session, active_session
from .dataframe import DataFrame
from .errors import ReproError
from .jobs import JobRunner, JobStore
from .query import PivotViewCache, QueryEngine
from .runtime import AsyncCheckpointWriter, BackgroundFlusher, RecordBuffer

__version__ = "1.0.0"

__all__ = [
    "flor",
    "FlorFacade",
    "Session",
    "active_session",
    "ProjectConfig",
    "HindsightEngine",
    "BackfillReport",
    "ReplayPlan",
    "DataFrame",
    "QueryEngine",
    "PivotViewCache",
    "JobStore",
    "JobRunner",
    "RecordBuffer",
    "BackgroundFlusher",
    "AsyncCheckpointWriter",
    "ReproError",
    "__version__",
]
