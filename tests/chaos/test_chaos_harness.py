"""Unit tests for the chaos core: plans, clocks, fault wrappers, ledger."""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from repro import ProjectConfig, Session
from repro.errors import DatabaseError
from repro.relational.database import Database
from repro.testing import (
    APPEND_KEY_HEADER,
    SEED_ENV_VAR,
    AckLedger,
    FaultPlan,
    ManualClock,
    SkewedClock,
    check_no_lost_rows,
    recent_mark,
    seeds_since,
)
from repro.storage import FaultyBlobStore, FaultyRelationalStore
from repro.storage.memory import MemoryBlobStore
from repro.webapp.framework import JsonResponse


class TestFaultPlan:
    def test_same_seed_same_schedule_per_site(self):
        decisions = [
            [
                FaultPlan(seed=42, locked_rate=0.5).decide("locked", "db.write")
                for _ in range(1)
            ]
        ]
        plan_a = FaultPlan(seed=42, locked_rate=0.5)
        plan_b = FaultPlan(seed=42, locked_rate=0.5)
        site = "db.write"
        assert [plan_a.decide("locked", site) for _ in range(64)] == [
            plan_b.decide("locked", site) for _ in range(64)
        ]
        del decisions

    def test_sites_draw_from_independent_streams(self):
        plan_a = FaultPlan(seed=7, locked_rate=0.5)
        plan_b = FaultPlan(seed=7, locked_rate=0.5)
        # Interleave foreign-site draws on plan_b only: site "x" must see
        # the same decision sequence regardless.
        expected = [plan_a.decide("locked", "x") for _ in range(32)]
        observed = []
        for index in range(32):
            if index % 3 == 0:
                plan_b.decide("locked", "y")
                plan_b.decide("slow", "x")
            observed.append(plan_b.decide("locked", "x"))
        assert observed == expected

    def test_different_seeds_differ(self):
        site = "db.write"
        schedule = lambda seed: [  # noqa: E731
            FaultPlan(seed=seed, locked_rate=0.5).decide("locked", site)
            for _ in range(64)
        ]
        assert schedule(1) != schedule(2)

    def test_force_fires_regardless_of_rate_and_suspension(self):
        plan = FaultPlan(seed=1, locked_rate=0.0)
        plan.force("locked", "db.write", times=2)
        with plan.suspended():
            assert plan.decide("locked", "db.write") is True
        assert plan.decide("locked", "db.write") is True
        assert plan.decide("locked", "db.write") is False
        assert plan.fired["locked"] == 2

    def test_suspended_consumes_draws_without_firing(self):
        site = "db.write"
        reference = FaultPlan(seed=9, locked_rate=0.5)
        expected = [reference.decide("locked", site) for _ in range(20)]
        plan = FaultPlan(seed=9, locked_rate=0.5)
        with plan.suspended():
            for _ in range(10):
                assert plan.decide("locked", site) is False
        # Position advanced: decisions 10.. match the reference schedule.
        assert [plan.decide("locked", site) for _ in range(10)] == expected[10:]

    def test_unknown_kind_rejected(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(ValueError):
            plan.decide("meteor", "site")
        with pytest.raises(ValueError):
            plan.force("meteor", "site")
        with pytest.raises(ValueError):
            FaultPlan(seed=1, locked_rate=1.5)

    def test_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "31415")
        assert FaultPlan().seed == 31415

    def test_describe_carries_replay_incantation(self):
        plan = FaultPlan(seed=77, locked_rate=0.25)
        description = plan.describe()
        assert "seed=77" in description
        assert f"{SEED_ENV_VAR}=77" in description

    def test_recent_registry_reports_new_plans(self):
        mark = recent_mark()
        plan = FaultPlan(seed=123456)
        seeds = seeds_since(mark)
        assert any("123456" in line for line in seeds)
        assert plan.describe() in seeds

    def test_maybe_sleep_durations_are_seeded(self):
        naps_a, naps_b = [], []
        plan_a = FaultPlan(seed=5, slow_rate=1.0, slow_seconds=0.004, sleep=naps_a.append)
        plan_b = FaultPlan(seed=5, slow_rate=1.0, slow_seconds=0.004, sleep=naps_b.append)
        for _ in range(8):
            assert plan_a.maybe_sleep("io") is True
            plan_b.maybe_sleep("io")
        assert naps_a == naps_b
        assert all(0.002 <= nap <= 0.004 for nap in naps_a)

    def test_stats_count_checks_and_fires(self):
        plan = FaultPlan(seed=3, locked_rate=1.0)
        plan.decide("locked", "a")
        plan.decide("slow", "a")
        stats = plan.stats()
        assert stats["checked"]["locked"] == 1
        assert stats["fired"]["locked"] == 1
        assert stats["fired"]["slow"] == 0


class TestClocks:
    def test_manual_clock_only_moves_when_told(self):
        clock = ManualClock(start=500.0)
        assert clock() == 500.0
        clock.advance(12.5)
        assert clock() == 512.5
        assert clock() == 512.5

    def test_skewed_clock_bounds_and_determinism(self):
        base = ManualClock(start=1000.0)
        plan_a = FaultPlan(seed=11, skew_rate=1.0, max_skew_seconds=30.0)
        plan_b = FaultPlan(seed=11, skew_rate=1.0, max_skew_seconds=30.0)
        readings_a = [SkewedClock(plan_a, base=base)() for _ in range(16)]
        readings_b = [SkewedClock(plan_b, base=base)() for _ in range(16)]
        assert readings_a == readings_b
        assert all(970.0 <= reading <= 1030.0 for reading in readings_a)
        assert any(reading != 1000.0 for reading in readings_a)

    def test_skewed_clock_honest_when_rate_zero(self):
        base = ManualClock(start=1000.0)
        clock = SkewedClock(FaultPlan(seed=11, skew_rate=0.0), base=base)
        assert [clock() for _ in range(8)] == [1000.0] * 8


class TestFaultyRelationalStore:
    def test_transaction_fault_is_raw_operational_error(self, db):
        plan = FaultPlan(seed=1)
        store = FaultyRelationalStore(db, plan, site="t")
        plan.force("locked", "t.transaction")
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            with store.transaction():
                pass
        # The fault fires before the backend is touched; the next attempt
        # goes through and the store is fully usable.
        with store.transaction() as connection:
            connection.execute(
                "INSERT INTO logs (projid, tstamp, filename, ctx_id, value_name, value, value_type) "
                "VALUES ('p', 't', 'f', 0, 'n', 'v', 1)"
            )
        assert store.count("logs") == 1

    def test_commit_fault_rolls_back_what_the_transaction_wrote(self, db):
        plan = FaultPlan(seed=1)
        store = FaultyRelationalStore(db, plan, site="t")
        plan.force("locked", "t.commit")
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            with store.transaction() as connection:
                connection.execute(
                    "INSERT INTO logs (projid, tstamp, filename, ctx_id, value_name, value,"
                    " value_type) VALUES ('p', 't', 'f', 0, 'n', 'v', 1)"
                )
        assert store.count("logs") == 0
        with store.transaction():
            pass  # the forced fault is spent; the store is usable

    def test_execute_fault_is_wrapped_database_error(self, db):
        plan = FaultPlan(seed=1)
        store = FaultyRelationalStore(db, plan, site="t")
        plan.force("locked", "t.execute")
        with pytest.raises(DatabaseError, match="database is locked"):
            store.execute("SELECT 1")

    def test_reads_never_fail_only_stall(self, db):
        naps = []
        plan = FaultPlan(seed=1, locked_rate=1.0, slow_rate=1.0, sleep=naps.append)
        store = FaultyRelationalStore(db, plan, site="t")
        assert store.query("SELECT 1") == [(1,)]
        assert store.query_one("SELECT 2") == (2,)
        assert naps  # stalled, but answered

    def test_session_flusher_absorbs_transient_write_faults(self, tmp_path):
        """A locked burst shorter than the retry budget loses nothing."""
        config = ProjectConfig(tmp_path / "p", "p").ensure_layout()
        plan = FaultPlan(seed=1)
        store = FaultyRelationalStore(Database(config.db_path), plan, site="s")
        session = Session(config, db=store, default_filename="train.py")
        session.log("metric", 0.5)
        plan.force("locked", "s.transaction", times=2)  # == default write_retries
        session.flush()
        assert store.count("logs") >= 1
        session.close()


class TestFaultyBlobStore:
    def test_puts_and_gets_stall_but_round_trip(self):
        naps = []
        plan = FaultPlan(seed=1, slow_rate=1.0, sleep=naps.append)
        store = FaultyBlobStore(MemoryBlobStore(), plan, site="b")
        object_id = store.put(b"payload")
        assert store.get(object_id) == b"payload"
        text_id = store.put("hello".encode("utf-8"))
        assert store.get_text(text_id) == "hello"
        assert len(naps) == 4  # two puts + two gets


class _Client:
    """A GET fails when ``"get"`` is broken; a keyed POST raises when its key
    is broken, and is a ``200`` replay when its key is in ``landed``."""

    def __init__(self, landed=(), broken=()):
        self.landed, self.broken, self.sent = set(landed), set(broken), []

    def get(self, url):
        if "get" in self.broken:
            raise ConnectionError(url)

    def post(self, url, json_body=None, headers=None):
        key = headers[APPEND_KEY_HEADER]
        self.sent.append(key)
        if key in self.broken:
            raise ConnectionError(key)
        return JsonResponse({"replayed": True}) if key in self.landed else JsonResponse({}, status=202)


def _batch(*values):
    return {"records": [{"name": "m", "value": v} for v in values]}


class TestAckLedger:
    def test_a_seal_resends_each_unsealed_batch_and_seals_the_replayed(self):
        ledger = AckLedger()
        for project, value in (("p", "1"), ("p", "2"), ("p", "3"), ("q", "4")):
            ledger.post(_Client(), project, _batch(value))
        # A failed barrier or resend proves nothing; a 202 is staged again.
        client = _Client(landed={"b1", "b2", "b4"}, broken={"get", "b2"})
        assert ledger.seal(client, "p", "/barrier") == 2
        assert client.sent == ["b1", "b2", "b3"]
        assert ledger.sealed_values("p", "m") == {"1"}
        client = _Client(landed={"b2", "b3"})
        assert ledger.seal(client, "p", "/barrier") == 0
        assert client.sent == ["b2", "b3"]  # a sealed batch is not sent again
        assert ledger.counts() == {"batches": 4, "sealed_batches": 3, "sealed_rows": 3}

    def test_a_post_the_client_raised_on_is_still_owed(self):
        ledger = AckLedger()
        with pytest.raises(ConnectionError):
            ledger.post(_Client(broken={"b1"}), "p", _batch("1"))
        assert ledger.owed("p") == {"m": Counter({"1": 1})}


class TestNoLostRows:
    def _check(self, stored, *batches, landed=True):
        db = Database()
        db.executemany(
            "INSERT INTO logs (projid, tstamp, filename, ctx_id, value_name, value)"
            " VALUES ('p', 't', 'f', 0, 'm', ?)",
            [(value,) for value in stored],
        )
        ledger = AckLedger()
        for values in batches:
            ledger.post(_Client(), "p", _batch(*values))
        ledger.seal(_Client(landed={f"b{i + 1}" for i in range(len(batches) if landed else 0)}), "p", "/b")
        return check_no_lost_rows(db, ledger, "p")

    def test_each_value_sent_stored_once_passes(self):
        assert self._check(["1", "2", "2"], ["1", "2"], ["2"]) == []

    def test_a_lost_row_a_duplicate_and_an_unsealed_batch_are_violations(self):
        assert self._check(["1", "1"], ["1", "2"], landed=False) == [
            "p/m: 1 row(s) lost (e.g. 2)",
            "p/m: 1 row(s) stored more often than sent (e.g. 1)",
            "p: 1 batch(es) never sealed",
        ]
