"""Invariant checkers: acknowledged writes versus post-recovery state.

The harness's correctness claims are phrased against the service's *actual*
acknowledgement semantics, not an idealized one.  ``POST /logs`` answering
``202`` means the batch was handed to the shard's writer — not that it is
durable.  So every batch the harness sends goes under an
``Idempotency-Key``, and the :class:`AckLedger` keeps each batch's key and
payload at two levels:

* **owed** — the client sent it (whatever the answer was);
* **sealed** — the service answered a resend under its key with ``200
  {"replayed": true}``: its rows are durable.

:meth:`AckLedger.seal` is the one way to seal — a barrier read, then every
unsealed batch POSTed again under its key — and repeating it until nothing
is left unsealed *settles* a project.  The headline invariant, checked once
a project is settled, is that its store holds each owed value exactly once
(:func:`check_no_lost_rows`): a lost row and a duplicated one are both
violations.  Before then, sealed values must survive any fault, eviction or
SIGKILL.

The remaining checkers cover the job layer (*zero double-replayed
versions*: no ``(job, vid)`` pair ever earns two ``version`` progress
events) and the log watermark (``MAX(logs.seq)`` is monotone across
recoveries — a recovered store never serves an older prefix).

Every checker returns a list of violation strings; :func:`assert_invariants`
raises :class:`InvariantViolation` with the fault plan's replay seed
attached, so a failure is reproducible from its own message.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .chaos import FaultPlan


class InvariantViolation(AssertionError):
    """A durability invariant did not hold; the message carries the seed."""


def assert_invariants(violations: Sequence[str], plan: FaultPlan | None = None) -> None:
    """Raise :class:`InvariantViolation` listing ``violations`` (if any)."""
    if not violations:
        return
    lines = "\n  - ".join(violations)
    suffix = f"\n{plan.describe()}" if plan is not None else ""
    raise InvariantViolation(
        f"{len(violations)} durability invariant violation(s):\n  - {lines}{suffix}"
    )


# ----------------------------------------------------------------- ledger
#: The header a keyed append carries (``POST /projects/<name>/logs``).
APPEND_KEY_HEADER = "Idempotency-Key"


def post_keyed(client, project: str, key: str, payload: dict[str, Any]):
    """POST ``payload`` to ``project``'s append route under ``key``, through any
    client whose ``post`` takes ``json_body=`` and ``headers=`` (the in-process
    ``TestClient``, or the ``HttpClient`` of a server or a fleet)."""
    return client.post(
        f"/projects/{project}/logs", json_body=payload, headers={APPEND_KEY_HEADER: key}
    )


@dataclass
class _Batch:
    project: str
    key: str
    payload: dict[str, Any]
    sealed: bool = False

    def values(self) -> Iterator[tuple[str, str]]:
        for record in self.payload.get("records", ()):
            yield str(record["name"]), str(record.get("value"))


class AckLedger:
    """Thread-safe record of the keyed batches a client owes the store.

    A writer takes :meth:`next_key`, sends its batch under it (retrying under
    the same key) and, once done trying, hands it to :meth:`record` — or does
    all three with :meth:`post`.  :meth:`seal` then proves batches durable.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._keys = itertools.count(1)
        self._batches: list[_Batch] = []

    def next_key(self) -> str:
        """A key no batch of this ledger has used."""
        with self._lock:
            return f"b{next(self._keys)}"

    def record(self, project: str, key: str, payload: dict[str, Any]) -> None:
        """Note one batch sent under ``key``, acknowledged or not."""
        with self._lock:
            self._batches.append(_Batch(project, key, payload))

    def post(self, client, project: str, payload: dict[str, Any]):
        """Send ``payload`` once under a fresh key and record it; returns the
        response (or raises what the client raised — the batch is owed anyway)."""
        key = self.next_key()
        try:
            return post_keyed(client, project, key, payload)
        finally:
            self.record(project, key, payload)

    def seal(self, client, project: str, barrier: str, rounds: int = 1) -> int:
        """Seal ``project``'s batches whose rows are durable; returns how many of
        those recorded before the last round began stay unsealed.

        A round is one barrier read (``barrier``, a read route: every read
        flushes what is staged first), then each batch unsealed when the
        round began POSTed again under its key.  ``200 {"replayed": true}``
        means its rows committed, and seals it.  ``202`` means they were
        lost or still in flight: they are staged again — the writer lands a
        key once — and the batch stays unsealed for the next round, as does
        one whose resend failed.  Rounds repeat until none is left.
        """
        left = 0
        for _ in range(rounds):
            with self._lock:
                batches = [b for b in self._batches if b.project == project and not b.sealed]
            try:
                client.get(barrier)
            except Exception:  # noqa: BLE001 - a failed barrier leaves more to resend
                pass
            left = 0
            for batch in batches:
                try:
                    response = post_keyed(client, project, batch.key, batch.payload)
                    replayed = response.status == 200 and response.json().get("replayed") is True
                except Exception:  # noqa: BLE001 - unsealed; the next round resends it
                    replayed = False
                if replayed:
                    with self._lock:
                        batch.sealed = True
                else:
                    left += 1
            if not left:
                break
        return left

    def sealed_values(self, project: str, name: str) -> set[str]:
        with self._lock:
            return {
                value
                for batch in self._batches
                if batch.sealed and batch.project == project
                for value_name, value in batch.values()
                if value_name == name
            }

    def owed(self, project: str) -> dict[str, Counter]:
        """Every value recorded for ``project``, a multiset per name."""
        owed: dict[str, Counter] = {}
        with self._lock:
            for batch in self._batches:
                if batch.project == project:
                    for name, value in batch.values():
                        owed.setdefault(name, Counter())[value] += 1
        return owed

    def counts(self, project: str | None = None) -> dict[str, int]:
        with self._lock:
            batches = [b for b in self._batches if project is None or b.project == project]
            return {
                "batches": len(batches),
                "sealed_batches": sum(1 for b in batches if b.sealed),
                "sealed_rows": sum(len(list(b.values())) for b in batches if b.sealed),
            }


# --------------------------------------------------------------- checkers
def check_no_lost_rows(db, ledger: AckLedger, project: str) -> list[str]:
    """Once ``project`` is settled, the store holds each value the ledger owes
    exactly once: no lost row, no duplicate, no unsealed batch."""
    violations: list[str] = []
    for name, owed in sorted(ledger.owed(project).items()):
        stored = Counter(
            str(row[0]) for row in db.query("SELECT value FROM logs WHERE value_name = ?", (name,))
        )
        for gap, what in ((owed - stored, "lost"), (stored - owed, "stored more often than sent")):
            if gap:
                sample = ", ".join(sorted(gap)[:5])
                violations.append(f"{project}/{name}: {sum(gap.values())} row(s) {what} (e.g. {sample})")
    counts = ledger.counts(project)
    if counts["sealed_batches"] < counts["batches"]:
        unsealed = counts["batches"] - counts["sealed_batches"]
        violations.append(f"{project}: {unsealed} batch(es) never sealed")
    return violations


def logs_watermark(db) -> int:
    """The store's append watermark: ``MAX(logs.seq)`` (0 when empty)."""
    row = db.query_one("SELECT COALESCE(MAX(seq), 0) FROM logs")
    return int(row[0]) if row else 0


def check_monotone_watermark(label: str, before: int, after: int) -> list[str]:
    """A recovered store must never serve an older log prefix."""
    if after < before:
        return [
            f"{label}: logs.seq watermark regressed across recovery "
            f"({before} -> {after})"
        ]
    return []


def check_single_replay(jobs_db) -> list[str]:
    """No job version may carry two ``version`` progress checkpoints.

    A resumed backfill reads its own ``version`` events to skip completed
    versions, so a double event means a version was replayed twice — the
    exactly-once claim of the job layer's checkpoint protocol.
    """
    seen: dict[tuple[int, str], int] = {}
    for job_id, payload in jobs_db.query(
        "SELECT job_id, payload FROM job_events WHERE kind = 'version'"
    ):
        try:
            vid = str(json.loads(payload).get("vid", ""))
        except (TypeError, ValueError):
            vid = ""
        if vid:
            key = (int(job_id), vid)
            seen[key] = seen.get(key, 0) + 1
    return [
        f"job {job_id}: version {vid} replayed {count} times"
        for (job_id, vid), count in sorted(seen.items())
        if count > 1
    ]


def check_recovery_time(label: str, seconds: float, bound: float) -> list[str]:
    """Recovery must complete within the scenario's time budget."""
    if seconds > bound:
        return [f"{label}: recovery took {seconds:.2f}s (bound: {bound:.2f}s)"]
    return []
