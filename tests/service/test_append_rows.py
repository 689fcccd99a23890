"""The rows an append stores are the rows the record classes build.

An append body is validated into staged rows on the request thread and
encoded on the flusher's writer; neither step may change a byte of what
SQLite keeps.  The oracle writes ``LogRecord.create(...).as_row()`` and
``LoopRecord(...)`` of the parsed body through the same INSERTs into a
fresh database, and every column of every row — ``typeof(value)``
included — must agree, whether the shard's flusher writes on its thread or,
closed, inline on the request's.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.relational.database import Database
from repro.relational.records import LogRecord, LoopRecord
from repro.relational.repositories import LogRepository, LoopRepository
from repro.service import FlorService
from repro.service.pool import SERVICE_FILENAME
from repro.webapp.framework import TestClient

INT64 = st.integers(-(2**63), 2**63 - 1)
EDGE_INTS = st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63])
EDGE_FLOATS = st.sampled_from([-0.0, 1e300, float("nan")])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), EDGE_INTS, st.floats(), EDGE_FLOATS, st.text(max_size=12)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _with_optional(required: dict, optional: dict):
    """Objects holding ``required`` and any subset of ``optional``."""
    return st.fixed_dictionaries(required, optional=optional)


RUN_KEYS = {"tstamp": st.text(max_size=6), "filename": st.text(max_size=6)}
RECORD = _with_optional(
    {"name": st.text(min_size=1, max_size=6), "value": VALUES}, {"ctx_id": INT64, **RUN_KEYS}
)
LOOP = _with_optional(
    {"loop_name": st.text(min_size=1, max_size=6)},
    {
        "ctx_id": INT64,
        "parent_ctx_id": st.none() | INT64,
        "loop_iteration": INT64,
        "iteration_value": st.text(max_size=6),
        **RUN_KEYS,
    },
)
BODY = _with_optional(
    {"records": st.lists(RECORD, min_size=1, max_size=6), "loops": st.lists(LOOP, max_size=3)},
    {"filename": st.text(max_size=6)},
)

ROWS_SQL = {
    "logs": "SELECT *, typeof(value) FROM logs ORDER BY seq",
    "loops": "SELECT * FROM loops ORDER BY rowid",
}


def _oracle(projid: str, tstamp: str, body: dict) -> dict[str, list[tuple]]:
    """What the append must store, written by the record classes."""
    filename = str(body.get("filename") or SERVICE_FILENAME)

    def run(item: dict) -> tuple[str, str]:
        return str(item.get("tstamp") or tstamp), str(item.get("filename") or filename)

    logs = [
        LogRecord.create(projid, *run(item), item.get("ctx_id", 0), str(item["name"]), item.get("value"))
        for item in body["records"]
    ]
    loops = [
        LoopRecord(
            projid,
            *run(item),
            item.get("ctx_id", 0),
            item.get("parent_ctx_id"),
            str(item["loop_name"]),
            item.get("loop_iteration", 0),
            str(item.get("iteration_value", "")),
        )
        for item in body["loops"]
    ]
    with Database(":memory:") as db:
        LogRepository(db).add_many(logs)
        LoopRepository(db).add_many(loops)
        return {table: db.query(sql) for table, sql in ROWS_SQL.items()}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    service = FlorService(tmp_path_factory.mktemp("host"), flush_interval=None)
    yield service
    service.close()


_tenants = itertools.count()


@pytest.mark.parametrize("closed", [False, True], ids=["async", "closed"])
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(body=BODY)
def test_stored_rows_equal_the_record_classes_rows(service, closed, body):
    name = f"t{next(_tenants)}"  # a fresh tenant: a fresh file, seq from 1
    wire = json.dumps(body).encode("utf-8")
    with service.pool.checkout(name) as shard:
        if closed:
            shard.session.flusher.close()  # every hand-off now writes inline
        projid, tstamp = shard.session.projid, shard.session.tstamp
    response = TestClient(service.app()).post(f"/projects/{name}/logs", body=wire)
    assert response.status == 202, response.text
    with service.pool.checkout(name) as shard:
        shard.flush()
        stored = {table: shard.session.db.query(sql) for table, sql in ROWS_SQL.items()}
    # What the server parsed (NaN and -0.0 survive the round trip as sent).
    assert stored == _oracle(projid, tstamp, json.loads(wire))
