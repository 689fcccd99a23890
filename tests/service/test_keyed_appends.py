"""Keyed appends against a reference model: a list of values per tenant.

A :class:`FlorService` over fault-wrapped shards (on a file and in memory)
takes keyed appends, retries of earlier keys (one racing its batch's
transaction), barrier reads, evictions, close-and-reopen and forced drops
(before a transaction opens, or at its commit).
Once settled, the store holds each value sent exactly once, and a ``200``
replay is only ever given for rows already committed.
"""

from __future__ import annotations

import shutil
import sqlite3
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import ProjectConfig
from repro.core.session import Session
from repro.relational.repositories import KEPT_APPEND_KEYS
from repro.service import FlorService
from repro.service.pool import SERVICE_FILENAME, ProjectShard
from repro.storage.faults import FaultyRelationalStore
from repro.storage.memory import MemoryBlobStore, MemoryRelationalStore
from repro.testing import AckLedger, FaultPlan, chaos_shard_factory, post_keyed
from repro.versioning.repository import Repository
from repro.webapp.framework import TestClient

TENANTS = ("alpha", "beta")
STORED_SQL = "SELECT value FROM logs WHERE value_name = 'm'"


def _batch(*values) -> dict:
    return {"records": [{"name": "m", "value": value} for value in values]}


def _memory_factory(root: Path, plan: FaultPlan, stores: dict):
    """``chaos_shard_factory`` over in-memory stores that outlive their shard."""

    def factory(name: str) -> ProjectShard:
        if name not in stores:
            stores[name] = MemoryRelationalStore()
        config = ProjectConfig(root / name, name)
        session = Session(
            config,
            db=FaultyRelationalStore(stores[name], plan, site=f"shard.{name}.db"),
            repository=Repository(None, config.root, store=MemoryBlobStore()),
            default_filename=SERVICE_FILENAME,
        )
        return ProjectShard(name, session)

    return factory


class KeyedAppendsMatchTheModel(RuleBasedStateMachine):
    #: ``sqlite`` (a file per tenant) or ``memory``.
    backend = "sqlite"

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp())
        self.plan = FaultPlan(seed=0, slow_seconds=0.02)
        self.stores: dict[str, MemoryRelationalStore] = {}
        if self.backend == "sqlite":
            self.factory = chaos_shard_factory(self.root, self.plan)
        else:
            self.factory = _memory_factory(self.root, self.plan, self.stores)
        self._open()
        self.ledger = AckLedger()
        #: The model: every batch sent, by key — (tenant, values).
        self.sent: dict[str, tuple[str, tuple[str, ...]]] = {}
        self.drops = 0  # forced drops, fired or still queued

    def _open(self):
        self.service = FlorService(
            self.root, pool_capacity=1, flush_interval=None, shard_factory=self.factory
        )
        self.client = TestClient(self.service.app())

    def _close(self):
        # A forced drop can fail the closing flush once per queued entry;
        # the shard is put back and the next close retries.
        for _ in range(4):
            try:
                self.service.close()
                return
            except sqlite3.OperationalError:
                pass
        self.service.close()

    def teardown(self):
        self._close()
        shutil.rmtree(self.root)

    def _stored(self, tenant: str) -> Counter:
        """The committed rows of ``tenant``, read beside the service."""
        if self.backend == "memory":
            rows = self.stores[tenant].query(STORED_SQL) if tenant in self.stores else []
        else:
            path = self.root / tenant / ".flor" / "flor.db"
            if not path.exists():
                return Counter()
            connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            try:
                rows = connection.execute(STORED_SQL).fetchall()
            finally:
                connection.close()
        return Counter(str(value) for (value,) in rows)

    @rule(tenant=st.sampled_from(TENANTS), size=st.integers(1, 3))
    def append(self, tenant, size):
        key = self.ledger.next_key()
        values = tuple(f"{key}.{i}" for i in range(size))
        response = post_keyed(self.client, tenant, key, _batch(*values))
        self.ledger.record(tenant, key, _batch(*values))
        self.sent[key] = (tenant, values)
        assert response.status == 202  # a key never sent cannot have landed

    @precondition(lambda self: self.sent)
    @rule(pick=st.integers(0, 10_000))
    def retry(self, pick):
        key = sorted(self.sent)[pick % len(self.sent)]
        tenant, values = self.sent[key]
        response = post_keyed(self.client, tenant, key, _batch(*values))
        assert response.status in (200, 202)
        if response.status == 200:
            assert response.json() == {"replayed": True}
            stored = self._stored(tenant)
            assert all(stored[value] == 1 for value in values), (key, values)

    @rule(tenant=st.sampled_from(TENANTS), size=st.integers(1, 3))
    def retry_in_flight(self, tenant, size):
        """A retry that races its batch: the writer stalls in the batch's
        transaction, so the route finds no key and queues the rows again."""
        self.plan.force("slow", f"shard.{tenant}.db.transaction")
        self.append(tenant, size)
        key = max(self.sent, key=lambda k: int(k[1:]))
        assert post_keyed(self.client, tenant, key, _batch(*self.sent[key][1])).status in (200, 202)

    @rule(tenant=st.sampled_from(TENANTS))
    def barrier(self, tenant):
        try:
            self.client.get(f"/projects/{tenant}/dataframe?names=m")
        except sqlite3.OperationalError:
            pass  # a dropped write's deferred error; its batch is resent at settle

    @rule(tenant=st.sampled_from(TENANTS))
    def evict(self, tenant):
        try:
            self.service.pool.evict(tenant)
        except sqlite3.OperationalError:
            pass  # the close's flush dropped a write; the shard is reinstated

    @rule()
    def reopen(self):
        self._close()
        self._open()

    @rule(tenant=st.sampled_from(TENANTS), site=st.sampled_from(["transaction", "commit"]))
    def drop(self, tenant, site):
        """The tenant's next write finds the database locked on every attempt:
        before its transaction opens, or at commit, after its rows and keys
        were written and must roll back."""
        self.plan.force("locked", f"shard.{tenant}.db.{site}", times=3)
        self.drops += 1

    @rule()
    def settle(self):
        # A forced drop still queued costs at most one round to fire and
        # one to resend what it dropped.
        for tenant in TENANTS:
            barrier = f"/projects/{tenant}/dataframe?names=m"
            assert self.ledger.seal(self.client, tenant, barrier, 2 * self.drops + 2) == 0
            expected = Counter(
                value for owner, values in self.sent.values() if owner == tenant for value in values
            )
            assert self._stored(tenant) == expected

    @invariant()
    def nothing_is_stored_twice(self):
        for tenant in TENANTS:
            assert all(count == 1 for count in self._stored(tenant).values())


class KeyedAppendsMatchTheModelInMemory(KeyedAppendsMatchTheModel):
    backend = "memory"


for _machine in (KeyedAppendsMatchTheModel, KeyedAppendsMatchTheModelInMemory):
    _machine.TestCase.settings = settings(
        max_examples=15, stateful_step_count=25, deadline=None, derandomize=True, print_blob=True
    )
TestKeyedAppendsMatchTheModel = KeyedAppendsMatchTheModel.TestCase
TestKeyedAppendsMatchTheModelInMemory = KeyedAppendsMatchTheModelInMemory.TestCase


@pytest.fixture()
def client(tmp_path):
    service = FlorService(tmp_path / "svc", flush_interval=None)
    yield service, TestClient(service.app())
    service.close()


class TestKeys:
    @pytest.mark.parametrize("key", ["", "k" * 129, "a\x01b", "a b", "ké"])
    def test_a_bad_key_is_a_400_that_stages_nothing(self, client, key):
        service, client = client
        assert client.post("/projects/alpha/logs", json_body=_batch("1")).status == 202
        response = post_keyed(client, "alpha", key, _batch("2"))
        assert response.status == 400
        assert "Idempotency-Key" in response.json()["error"]
        stored = client.get("/projects/alpha/sql?q=SELECT value FROM logs").json()
        assert stored["records"] == [{"value": "1"}]

    def test_the_longest_key_is_accepted(self, client):
        _, client = client
        assert post_keyed(client, "alpha", "k" * 128, _batch("1")).status == 202

    def test_an_unkeyed_append_is_applied_each_time_it_is_sent(self, client):
        _, client = client
        for _ in range(2):
            assert client.post("/projects/alpha/logs", json_body=_batch("1")).status == 202
        stored = client.get("/projects/alpha/sql?q=SELECT value FROM logs").json()
        assert stored["records"] == [{"value": "1"}, {"value": "1"}]

    def test_a_key_past_the_window_is_forgotten_and_one_inside_it_kept(self, client):
        service, client = client
        for index in range(KEPT_APPEND_KEYS + 1):
            assert post_keyed(client, "alpha", f"k{index}", _batch(str(index))).status == 202
        client.get("/projects/alpha/dataframe?names=m")
        with service.pool.checkout("alpha") as shard:
            assert shard.session.db.count("append_keys") == KEPT_APPEND_KEYS
        # k1 is the oldest key kept; k0 fell out of the window, so its
        # resend is applied again.
        assert post_keyed(client, "alpha", "k1", _batch("1")).json() == {"replayed": True}
        assert post_keyed(client, "alpha", "k0", _batch("0")).status == 202
        stored = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        assert stored["records"] == [{"n": KEPT_APPEND_KEYS + 2}]
