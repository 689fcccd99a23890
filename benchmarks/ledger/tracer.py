"""Spans recorded from outside the program, around calls into each layer.

The program has no span API yet (ROADMAP item 2), so the ledger times the
public callables of each package from here: :func:`install` replaces them
with wrappers that record a span — name, start, end, parent, op id — on a
thread-local stack.  Spans stay in memory and are written out when the run
ends.  A layer's *self time* is its span's duration minus the part its
child spans cover (:func:`self_times`).

Callables that run once per record (``LogRecord.create``, ``Session.log``)
are not given a span each: their calls are accumulated as (count, total ns)
per enclosing span and written as one aggregate child span, so a 64-record
request costs 3 extra spans, not 80.

Every target is looked up by name at install time and skipped when absent
(listed in ``Tracer.missing``): a later change that removes a layer makes
its metric read 0 here, it does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# Session.current_filename() walks the stack for the first frame whose
# module has a __file__ outside the package and the stdlib, and stamps that
# name on the record.  The wrappers below sit on that stack between the
# user's script and Session.log, so this module must not look like one.
globals().pop("__file__", None)

#: Request header carrying the client's span id to the handler thread.
OP_HEADER = "X-Ledger-Op"

#: The socket workloads' root span, one per op: the client's round trip.
#: Its self time is what the handler's span does not cover — the wire.
ROOT_WIRE = "service.server.wire"

_now = time.perf_counter_ns

#: One span: (id, parent id, op id, name, start ns, end ns, calls).
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name: str, parent: int | None = None, op: int | None = None) -> list:
        """Push a span; ``parent``/``op`` default to the enclosing span's."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            if parent is None:
                parent = top[0]
            if op is None:
                op = top[1]
        # [id, op, accumulators, ns covered by children, parent, name, start]
        frame = [next(self._ids), op, None, 0, parent, name, _now()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = _now()
        stack = self._stack()
        stack.pop()
        span_id, op, accumulators, _covered, parent, name, start = frame
        self.spans.append((span_id, parent, op, name, start, end, 1))
        if accumulators:
            for acc_name, (calls, total) in accumulators.items():
                self.spans.append(
                    (next(self._ids), span_id, op, acc_name, start, start + total, calls)
                )
        if stack:
            stack[-1][3] += end - start

    def root(self, name: str) -> "_SpanContext":
        """A root span whose op id is its own id (``with tracer.root(...)``)."""
        return _SpanContext(self, name)

    def _accumulate(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        if not stack:
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)
        top = stack[-1]
        covered_before = top[3]
        started = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            # Exclusive of spans that closed meanwhile: they are this
            # frame's children in their own right.
            elapsed = _now() - started - (top[3] - covered_before)
            if top[2] is None:
                top[2] = {}
            entry = top[2].get(name)
            if entry is None:
                top[2][name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            top[3] += elapsed

    # ------------------------------------------------------------- wrappers
    def spanned(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def accumulated(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            return self._accumulate(name, fn, args, kwargs)

        return wrapper

    def context_manager(self, fn: Callable, name: str, *, enter_only: bool) -> Callable:
        """Wrap a callable that returns a context manager."""

        def wrapper(*args, **kwargs):
            return _TimedContext(self, fn(*args, **kwargs), name, enter_only)

        return wrapper

    def generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: every resume is one accumulated call."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            resume = inner.__next__
            try:
                while True:
                    try:
                        value = self._accumulate(name, resume, (), {})
                    except StopIteration:
                        return
                    yield value
            finally:
                inner.close()

        return wrapper

    def resolver(self, fn: Callable, name: str) -> Callable:
        """Wrap ``Router.resolve``: the handler it returns gets the span."""

        def wrapper(*args, **kwargs):
            handler, params = fn(*args, **kwargs)
            return self.spanned(handler, name), params

        return wrapper

    def server_factory(self, fn: Callable, name: str) -> Callable:
        """Wrap ``make_server``: the handler class's do_GET/do_POST get the
        span, parented to the client span named in the request header."""

        def dispatch(method: Callable) -> Callable:
            def wrapper(handler):
                raw = handler.headers.get(OP_HEADER)
                client_span = int(raw) if raw else None
                frame = self.open(name, client_span, client_span)
                try:
                    return method(handler)
                finally:
                    self.close(frame)

            return wrapper

        def wrapper(*args, **kwargs):
            server = fn(*args, **kwargs)
            cls = server.RequestHandlerClass
            for verb in ("do_GET", "do_POST"):
                setattr(cls, verb, dispatch(getattr(cls, verb)))
            return server

        return wrapper

    # -------------------------------------------------------------- patching
    def patch(self, module: str, qualname: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``module.qualname`` (and every alias of a module-level
        function inside the ``repro`` package) with ``make(original)``."""
        label = f"{module}.{qualname}"
        try:
            owner: Any = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(label)
            return False
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        if inspect.ismodule(owner):
            # `from .replay import replay_source` binds a second name.
            for name, candidate in list(sys.modules.items()):
                if candidate is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(candidate).items()):
                    if value is raw:
                        setattr(candidate, key, replacement)
                        self._undo.append((candidate, key, raw))
        else:
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, raw))
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------------- output
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self.id: int | None = None

    def __enter__(self) -> "_SpanContext":
        self._frame = self._tracer.open(self._name)
        self.id = self._frame[0]
        if self._frame[1] is None:
            self._frame[1] = self.id
        return self

    def __exit__(self, *_exc) -> None:
        self._tracer.close(self._frame)


class _TimedContext:
    def __init__(self, tracer: Tracer, inner: Any, name: str, enter_only: bool):
        self._tracer = tracer
        self._inner = inner
        self._name = name
        self._enter_only = enter_only
        self._frame: list | None = None

    def __enter__(self) -> Any:
        frame = self._tracer.open(self._name)
        if not self._enter_only:
            self._frame = frame
            return self._inner.__enter__()
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.close(frame)

    def __exit__(self, *exc) -> Any:
        try:
            return self._inner.__exit__(*exc)
        finally:
            if self._frame is not None:
                self._tracer.close(self._frame)


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# What gets a span.  (module, qualified name, span name, kind)
# ---------------------------------------------------------------------------

TARGETS = (
    ("repro.service.server", "make_server", "service.server.dispatch", "server"),
    ("repro.webapp.framework", "WebApp.handle", "webapp.framework.handle", "span"),
    ("repro.webapp.framework", "Request.get_json", "webapp.framework.json_decode", "span"),
    ("repro.webapp.framework", "JsonResponse.__init__", "webapp.framework.json_encode", "span"),
    ("repro.webapp.framework", "Router.resolve", "service.app.handler", "resolver"),
    ("repro.service.pool", "DatabasePool.checkout", "service.pool.checkout", "enter"),
    ("repro.relational.records", "LogRecord.create", "relational.records.build", "calls"),
    ("repro.relational.records", "LoopRecord.__init__", "relational.records.build", "calls"),
    ("repro.service.ingest", "IngestionQueue.append", "service.ingest.append", "span"),
    ("repro.runtime.flusher", "BackgroundFlusher.submit", "runtime.flusher.submit", "span"),
    ("repro.runtime.flusher", "BackgroundFlusher._write", "runtime.flusher.write", "span"),
    ("repro.relational.database", "Database.transaction", "relational.database.txn", "context"),
    ("repro.query.engine", "QueryEngine.dataframe", "query.engine.dataframe", "span"),
    ("repro.query.cache", "PivotViewCache.dataframe", "query.cache.dataframe", "span"),
    ("repro.relational.queries", "long_format_records", "relational.queries.fetch", "span"),
    ("repro.core.dataframe_view", "pivot_run", "core.dataframe_view.pivot", "calls"),
    ("repro.core.dataframe_view", "compose_group", "core.dataframe_view.pivot", "span"),
    ("repro.core.dataframe_view", "finalize", "core.dataframe_view.pivot", "span"),
    ("repro.core.dataframe_view", "build_dataframe", "core.dataframe_view.pivot", "span"),
    ("repro.dataframe.frame", "DataFrame.to_records", "dataframe.frame.to_records", "span"),
    ("repro.fleet.router", "FleetRouter.handle", "fleet.router.handle", "span"),
    ("repro.fleet.supervisor", "FleetSupervisor.route", "fleet.supervisor.route", "span"),
    ("repro.fleet.transport", "HttpClient.request", "fleet.transport.hop", "span"),
    ("repro.core.session", "Session.log", "core.session.log", "calls"),
    ("repro.core.session", "Session.loop", "core.session.loop_iter", "generator"),
    ("repro.core.session", "Session.flush", "core.session.flush", "span"),
    ("repro.core.session", "Session.commit", "core.session.commit", "span"),
    ("repro.core.session", "Session.dataframe", "core.session.dataframe", "span"),
    ("repro.versioning.repository", "Repository.commit", "versioning.repository.commit", "span"),
    ("repro.runtime.checkpoint_writer", "AsyncCheckpointWriter.submit",
     "runtime.checkpoint_writer.submit", "span"),
    ("repro.core.checkpoint", "CheckpointManager.save", "core.checkpoint.save", "span"),
    ("repro.core.checkpoint", "CheckpointManager.restore", "core.checkpoint.restore", "span"),
    ("repro.core.hindsight", "HindsightEngine.backfill", "core.hindsight.backfill", "span"),
    ("repro.core.propagation", "propagate_statements", "core.propagation.propagate", "span"),
    ("repro.core.replay", "replay_source", "core.replay.replay", "span"),
)

#: Span name -> the per-layer metric its self time feeds (mean per op).
SELF_TIME_METRIC = {
    ROOT_WIRE: "service.server.wire_ms",
    "service.server.dispatch": "service.server.dispatch_self_ms",
    "webapp.framework.handle": "webapp.framework.handle_self_ms",
    "webapp.framework.json_decode": "webapp.framework.json_decode_ms",
    "webapp.framework.json_encode": "webapp.framework.json_encode_ms",
    "service.app.handler": "service.app.handler_self_ms",
    "service.pool.checkout": "service.pool.checkout_ms",
    "relational.records.build": "relational.records.build_ms",
    "service.ingest.append": "service.ingest.append_self_ms",
    "runtime.flusher.submit": "runtime.flusher.submit_ms",
    "runtime.flusher.write": "runtime.flusher.write_ms",
    "relational.database.txn": "relational.database.txn_ms",
    "query.engine.dataframe": "query.engine.dataframe_self_ms",
    "query.cache.dataframe": "query.cache.dataframe_self_ms",
    "relational.queries.fetch": "relational.queries.fetch_ms",
    "core.dataframe_view.pivot": "core.dataframe_view.pivot_ms",
    "dataframe.frame.to_records": "dataframe.frame.to_records_ms",
    "fleet.router.handle": "fleet.router.handle_self_ms",
    "fleet.supervisor.route": "fleet.supervisor.route_ms",
    "fleet.transport.hop": "fleet.transport.hop_ms",
    "core.session.flush": "core.session.flush_ms",
    "core.session.commit": "core.session.commit_ms",
    "versioning.repository.commit": "versioning.repository.commit_ms",
    "runtime.checkpoint_writer.submit": "runtime.checkpoint_writer.submit_ms",
    "core.checkpoint.save": "core.checkpoint.save_ms",
    "core.propagation.propagate": "core.propagation.propagate_ms",
    "core.replay.replay": "core.replay.replay_ms",
    "core.checkpoint.restore": "core.checkpoint.restore_ms",
}

#: Span name -> the metric reporting its mean self time per call, in us.
PER_CALL_METRIC = {
    "core.session.log": "core.session.log_us",
    "core.session.loop_iter": "core.session.loop_iter_us",
}

#: Catalogued spans that feed no self-time metric of their own but whose
#: time is accounted for (reported whole, under another definition).
ATTRIBUTED_ONLY = ("core.session.dataframe", "core.hindsight.backfill")


def install(tracer: Tracer) -> Tracer:
    wrappers = {
        "span": tracer.spanned,
        "calls": tracer.accumulated,
        "enter": functools.partial(tracer.context_manager, enter_only=True),
        "context": functools.partial(tracer.context_manager, enter_only=False),
        "generator": tracer.generator,
        "resolver": tracer.resolver,
        "server": tracer.server_factory,
    }
    for module, qualname, span_name, kind in TARGETS:
        tracer.patch(module, qualname, functools.partial(_wrap, wrappers[kind], span_name))
    return tracer


def _wrap(wrapper: Callable, span_name: str, fn: Callable) -> Callable:
    return wrapper(fn, span_name)


# ---------------------------------------------------------------------------
# Arithmetic over finished spans
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover."""
    spans = list(spans)
    result = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        parent = span[1]
        if parent in result:
            result[parent] -= span[5] - span[4]
    return result


def totals_by_name(spans: Iterable[Span]) -> dict[str, dict[str, int]]:
    """Span name -> calls, self ns and whole ns, summed over every span."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "ns": 0})
    for span_id, _parent, _op, name, start, end, calls in spans:
        entry = totals[name]
        entry["calls"] += calls
        entry["self_ns"] += own[span_id]
        entry["ns"] += end - start
    return dict(totals)


def attributed_share(spans: Iterable[Span]) -> float:
    """Self time of catalogued spans inside ops / duration of the ops' roots.

    Spans outside any op (flusher threads, worker processes) are left out of
    both sides; what keeps the share below 1 is time in harness-owned spans
    (the round and its phases on the library workload: compiling and running
    the user's script between calls into the program).
    """
    spans = list(spans)
    own = self_times(spans)
    catalogued = set(SELF_TIME_METRIC) | set(PER_CALL_METRIC) | set(ATTRIBUTED_ONLY)
    roots = {s[0]: s[5] - s[4] for s in spans if s[2] == s[0]}
    named_ns = sum(own[s[0]] for s in spans if s[2] in roots and s[3] in catalogued)
    return named_ns / sum(roots.values()) if roots else 0.0
