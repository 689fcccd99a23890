"""The four workloads: frozen shapes, inputs made from the seed, references.

Everything a run sends is a function of ``(spec, seed)``; the program only
ever sees the generated inputs.  Each workload also carries the reference
its output check compares against, built here from the same inputs and
never from anything the program returned.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from urllib.parse import quote

METRICS = ("metric_0", "metric_1", "metric_2", "metric_3")
NAMES_ARG = ",".join(METRICS)

#: Ten characters that the payload-level "filename" of every ingest body is
#: encoded with, and that the client splices the cycle number over.
_CYCLE_TOKEN = "c000000.py"


def cycle_filename(cycle: int) -> str:
    return f"c{cycle:06d}.py"


def tenant_name(seed: int, index: int) -> str:
    return f"s{seed}-{index:02d}"


def sql_path(tenant: str, query: str) -> str:
    return f"/projects/{tenant}/sql?q={quote(query)}&primary=1"


# ---------------------------------------------------------------------------
# ingest_bulk and fleet_small
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestSpec:
    """Closed-loop appends: 2 client threads, each owning half the tenants.

    A POST carries ``iterations`` loop rows and four log records per
    iteration.  A tenant's bodies cycle through ``cycle_posts`` pre-encoded
    payloads; each pass over them is one run, told apart by the payload's
    ``filename`` (the only bytes that change between passes).
    """

    name: str
    iterations: int
    warm_posts: int
    #: ``serve --workers N``; 0 is the single process.
    workers: int = 0
    tenants: int = 4
    cycle_posts: int = 64

    @property
    def records(self) -> int:
        return self.iterations * len(METRICS)


#: 64 records + 16 loops per POST against one `repro serve` with its
#: defaults (sqlite WAL, synchronous=NORMAL, flush-size 64, flush-interval
#: 0.5, pool-capacity 8, QoS and access log off).
INGEST_BULK = IngestSpec("ingest_bulk", iterations=16, warm_posts=10)

#: 4 records + 1 loop per POST through the router of `serve --workers 2`.
FLEET_SMALL = IngestSpec("fleet_small", iterations=1, warm_posts=6, workers=2)

#: fleet_small resolves this many candidate names and keeps two per worker.
FLEET_CANDIDATES = 16


class IngestInputs:
    """Pre-encoded bodies and the values behind them, for one tenant list."""

    def __init__(self, spec: IngestSpec, seed: int, tenants: list[str]):
        self.spec = spec
        self.tenants = tenants
        self._values: dict[str, list[list[list[float]]]] = {}
        self._bodies: dict[str, list[tuple[bytes, bytes]]] = {}
        for tenant in tenants:
            rng = random.Random(f"ledger/{seed}/{tenant}")
            table = [
                [[round(rng.uniform(0.0, 1000.0), 6) for _ in METRICS] for _ in range(spec.iterations)]
                for _ in range(spec.cycle_posts)
            ]
            self._values[tenant] = table
            self._bodies[tenant] = [self._encode(k, table[k]) for k in range(spec.cycle_posts)]

    def _encode(self, k: int, values: list[list[float]]) -> tuple[bytes, bytes]:
        first = k * self.spec.iterations
        payload = {
            "filename": _CYCLE_TOKEN,
            "records": [
                {"name": name, "value": values[j][m], "ctx_id": first + j + 1}
                for j in range(self.spec.iterations)
                for m, name in enumerate(METRICS)
            ],
            "loops": [
                {
                    "loop_name": "step",
                    "loop_iteration": first + j,
                    "ctx_id": first + j + 1,
                    "parent_ctx_id": 0,
                    "iteration_value": str(first + j),
                }
                for j in range(self.spec.iterations)
            ],
        }
        prefix, suffix = json.dumps(payload).encode("utf-8").split(_CYCLE_TOKEN.encode("ascii"))
        return prefix, suffix

    def body(self, tenant: str, cycle: int, k: int) -> bytes:
        prefix, suffix = self._bodies[tenant][k]
        return prefix + cycle_filename(cycle).encode("ascii") + suffix

    def expected_rows(self, tenant: str, posts: list[int]) -> dict[tuple[str, int], float]:
        """``(value_name, ctx_id) -> value`` for the given bodies of one cycle."""
        expected = {}
        for k in posts:
            first = k * self.spec.iterations
            for j, row in enumerate(self._values[tenant][k]):
                for m, name in enumerate(METRICS):
                    expected[(name, first + j + 1)] = row[m]
        return expected


# ---------------------------------------------------------------------------
# read_write_mix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixSpec:
    """One closed-loop reader beside one open-loop writer.

    The hot tenant is seeded with ``hot_runs`` committed runs of
    ``hot_iterations`` x 4 records (4,000 rows) and each of ``cold_tenants``
    cold tenants with ``cold_iterations`` x 4 (400 rows); 13 tenants exceed
    the pool's 8 handles, so the round-robin cold read always reopens a
    shard and builds its view from nothing.  The writer appends
    ``append_iterations`` x 4 records every ``1 / write_rate`` seconds and
    commits after every ``commit_every``-th append, which closes that run
    and starts the next.
    """

    name: str = "read_write_mix"
    workers: int = 0
    hot_runs: int = 4
    hot_iterations: int = 250
    cold_tenants: int = 12
    cold_iterations: int = 100
    write_rate: float = 10.0
    append_iterations: int = 4
    commit_every: int = 10
    warm_hot_reads: int = 10
    #: Reader's fixed 10-step cycle before the seed shuffles its order.
    cycle: tuple[str, ...] = ("hot",) * 7 + ("latest", "sql", "cold")


READ_WRITE_MIX = MixSpec()

SQL_AGGREGATE = "SELECT value_name, COUNT(*) AS n FROM logs GROUP BY value_name ORDER BY value_name"


def _run_payload(filename: str, values: list[list[float]], first: int = 0) -> bytes:
    payload = {
        "filename": filename,
        "records": [
            {"name": name, "value": row[m], "ctx_id": first + j + 1}
            for j, row in enumerate(values)
            for m, name in enumerate(METRICS)
        ],
        "loops": [
            {
                "loop_name": "step",
                "loop_iteration": first + j,
                "ctx_id": first + j + 1,
                "parent_ctx_id": 0,
                "iteration_value": str(first + j),
            }
            for j in range(len(values))
        ],
    }
    return json.dumps(payload).encode("utf-8")


class MixInputs:
    def __init__(self, spec: MixSpec, seed: int, seconds: float):
        self.spec = spec
        self.hot = tenant_name(seed, 0)
        self.cold = [tenant_name(seed, i + 1) for i in range(spec.cold_tenants)]
        rng = random.Random(f"ledger/{seed}/mix")

        def values(count: int) -> list[list[float]]:
            return [[round(rng.uniform(0.0, 1000.0), 6) for _ in METRICS] for _ in range(count)]

        self.hot_values = [values(spec.hot_iterations) for _ in range(spec.hot_runs)]
        self.hot_bodies = [_run_payload("seed.py", run) for run in self.hot_values]
        self.cold_values = {tenant: values(spec.cold_iterations) for tenant in self.cold}
        self.cold_bodies = {
            tenant: _run_payload("seed.py", run) for tenant, run in self.cold_values.items()
        }
        self.appends = int(seconds * spec.write_rate)
        self.append_values = [values(spec.append_iterations) for _ in range(self.appends)]
        self.append_bodies = [
            _run_payload(
                "live.py", self.append_values[i], (i % spec.commit_every) * spec.append_iterations
            )
            for i in range(self.appends)
        ]
        order = list(spec.cycle)
        rng.shuffle(order)
        self.cycle = tuple(order)

    def reference_frame(self, acked_appends: list[int]) -> list[tuple]:
        """The hot tenant's frame as sorted ``(run, step, m0, m1, m2, m3)``.

        Runs are numbered in the order they were written: the seeded runs,
        then one per ``commit_every`` appends.
        """
        rows = []
        for run, values in enumerate(self.hot_values):
            rows.extend((run, step, *row) for step, row in enumerate(values))
        segments = sorted({i // self.spec.commit_every for i in acked_appends})
        ordinal = {segment: self.spec.hot_runs + n for n, segment in enumerate(segments)}
        for i in acked_appends:
            first = (i % self.spec.commit_every) * self.spec.append_iterations
            for j, row in enumerate(self.append_values[i]):
                rows.append((ordinal[i // self.spec.commit_every], first + j, *row))
        return sorted(rows)


def frame_rows(records: list[dict]) -> list[tuple]:
    """A served hot frame in :meth:`MixInputs.reference_frame`'s form."""
    runs = sorted({(r["tstamp"], r["filename"]) for r in records})
    ordinal = {run: n for n, run in enumerate(runs)}
    return sorted(
        (ordinal[(r["tstamp"], r["filename"])], r["step"], *(r[name] for name in METRICS))
        for r in records
    )


# ---------------------------------------------------------------------------
# library_hindsight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LibrarySpec:
    """Record -> hindsight backfill -> query through one ``Session``.

    A project starts with ``base_versions`` committed versions of the script
    and lives ``rounds`` rounds; a round records one more version, backfills
    a statement nobody logged (``hs_<round>``, once per epoch) into the
    ``window`` most recent versions, and reads ``loss`` beside it twice.

    Frozen at epochs=4, steps=8, three extra logged names per step and
    window=2: at the seed commit a round costs ~37 ms, of which record is
    ~12 %, backfill ~63 % and the cold query ~25 % (a backfilled version
    costs >= 3x a recorded one because every replay session reads the whole
    logs table first, so record cannot reach the issue's 20 % with one new
    version per round; window=2 is the smallest that is still multi-version).
    """

    name: str = "library_hindsight"
    base_versions: int = 8
    rounds: int = 16
    window: int = 2
    epochs: int = 4
    steps: int = 8
    aux_names: int = 3
    #: Whole project lives run (unmeasured) during set-up: >= 2 s of work
    #: even while the host is in its fast mode.
    warm_projects: int = 4
    filename: str = "train.py"

    @property
    def rows_per_version(self) -> int:
        # lr, then per step loss + aux names, then final_w
        return 1 + self.epochs * self.steps * (1 + self.aux_names) + 1


LIBRARY_HINDSIGHT = LibrarySpec()

_SCRIPT = '''"""Synthetic training script, version {version}."""
{padding}lr = flor.arg("lr", {lr!r})
state = {{"w": 0.0, "steps": 0}}
with flor.checkpointing(state=state):
    for epoch in flor.loop("epoch", range({epochs})):
        for step in flor.loop("step", range({steps})):
            state["w"] += lr / (1 + epoch + step)
            state["steps"] += 1
            flor.log("loss", 1.0 / (1.0 + state["w"]))
{aux}{hindsight}
flor.log("final_w", state["w"])
'''


def learning_rate(seed: int, version: int) -> float:
    return round(0.01 * (version + 1) * (1.0 + (seed % 97) / 1000.0), 9)


def script_source(
    spec: LibrarySpec, seed: int, version: int, hindsight_round: int | None = None
) -> str:
    """Version ``version`` of the script; refactor padding grows with it.

    With ``hindsight_round`` the source also carries the statement the
    developer wishes they had logged, once per epoch.
    """
    padding = "".join(
        f"# revision note {i}: tuned hyperparameters after review\n" for i in range(version * 2)
    )
    aux = "".join(
        f'            flor.log("aux_{i}", state["steps"] * {i + 1})\n' for i in range(spec.aux_names)
    )
    hindsight = ""
    if hindsight_round is not None:
        hindsight = f'        flor.log("hs_{hindsight_round}", state["w"])'
    return _SCRIPT.format(
        version=version,
        padding=padding,
        lr=learning_rate(seed, version),
        epochs=spec.epochs,
        steps=spec.steps,
        aux=aux,
        hindsight=hindsight,
    )


def closed_form(spec: LibrarySpec, seed: int, version: int) -> tuple[list[list[float]], list[float]]:
    """``(loss[epoch][step], w after each epoch)`` — the script's arithmetic."""
    lr = learning_rate(seed, version)
    w = 0.0
    losses, weights = [], []
    for epoch in range(spec.epochs):
        row = []
        for step in range(spec.steps):
            w += lr / (1 + epoch + step)
            row.append(1.0 / (1.0 + w))
        losses.append(row)
        weights.append(w)
    return losses, weights


def library_reference(spec: LibrarySpec, seed: int, versions: int, round_index: int) -> list[tuple]:
    """The frame ``dataframe("loss", "hs_<round>")`` must hold after a round.

    Sorted ``(version, epoch, step, loss, hs)``; ``hs`` is present only on
    the ``window`` newest of the ``versions`` recorded so far.
    """
    rows = []
    for version in range(versions):
        losses, weights = closed_form(spec, seed, version)
        backfilled = version >= versions - spec.window
        for epoch in range(spec.epochs):
            for step in range(spec.steps):
                hs = weights[epoch] if backfilled else None
                rows.append((version, epoch, step, losses[epoch][step], hs))
    return rows


# ---------------------------------------------------------------------------
# The shapes by workload name
# ---------------------------------------------------------------------------

SPECS = {
    spec.name: spec for spec in (INGEST_BULK, FLEET_SMALL, READ_WRITE_MIX, LIBRARY_HINDSIGHT)
}

#: ``run.py --smoke``: the same workloads with seeding and warm-up shrunk
#: until a pass fits a unit test.  Every output check still runs, and the
#: mix still has more tenants than the pool has handles.
SMOKE_SPECS = {
    "ingest_bulk": replace(INGEST_BULK, warm_posts=1, cycle_posts=4, tenants=2),
    "fleet_small": replace(FLEET_SMALL, warm_posts=1, cycle_posts=4, tenants=2),
    "read_write_mix": replace(
        READ_WRITE_MIX, hot_runs=2, hot_iterations=12, cold_tenants=9, cold_iterations=3,
        warm_hot_reads=1,
    ),
    "library_hindsight": replace(LIBRARY_HINDSIGHT, base_versions=2, rounds=2, warm_projects=0),
}
