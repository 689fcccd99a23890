"""Invariant checkers: acknowledged writes versus post-recovery state.

The harness's correctness claims are phrased against the service's *actual*
acknowledgement semantics, not an idealized one.  ``POST /logs`` answering
``202`` means the batch was handed to the shard's writer — not that it is
durable; durability comes from the next successful commit or
read-your-writes read (both flush first).  The :class:`AckLedger` therefore
tracks two levels:

* **acked** — the service accepted the batch (a 202 came back);
* **sealed** — a durability barrier (a ``dataframe`` read or a commit)
  *started after the batch was acked* later succeeded.

The headline invariant — *zero lost acked rows* — is asserted over sealed
batches: every value sealed before a fault, an eviction, or a SIGKILL must
be present after recovery.  Unsealed batches are the client's at-least-once
retry obligation, mirroring what a real client does with an ambiguous ack.

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
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

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
@dataclass
class _Batch:
    batch_id: int
    project: str
    name: str
    values: tuple[str, ...]
    sealed: bool = False


class AckLedger:
    """Thread-safe record of acknowledged batches and durability barriers.

    Writers call :meth:`record` *after* the service acknowledged a batch.
    To seal, a reader takes :meth:`mark` *before* issuing its barrier
    request and, on success, calls :meth:`seal_through` with that mark —
    only batches acked before the barrier began are sealed, so a batch
    racing the barrier is never credited with durability it wasn't given.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._batches: list[_Batch] = []

    def record(self, project: str, name: str, values: Iterable[Any]) -> int:
        """Note one acknowledged batch; returns its ledger id."""
        with self._lock:
            batch = _Batch(
                next(self._ids), project, name, tuple(str(v) for v in values)
            )
            self._batches.append(batch)
            return batch.batch_id

    def mark(self, project: str | None = None) -> int:
        """Snapshot token: the highest batch id acked so far."""
        with self._lock:
            relevant = (
                b for b in self._batches if project is None or b.project == project
            )
            return max((b.batch_id for b in relevant), default=0)

    def seal_through(self, mark: int, project: str | None = None) -> int:
        """Seal every batch acked at or before ``mark``; returns how many."""
        sealed = 0
        with self._lock:
            for batch in self._batches:
                if batch.batch_id > mark or batch.sealed:
                    continue
                if project is not None and batch.project != project:
                    continue
                batch.sealed = True
                sealed += 1
        return sealed

    def sealed_values(self, project: str, name: str) -> set[str]:
        with self._lock:
            return {
                value
                for batch in self._batches
                if batch.sealed and batch.project == project and batch.name == name
                for value in batch.values
            }

    def sealed_names(self, project: str) -> set[str]:
        with self._lock:
            return {
                b.name for b in self._batches if b.sealed and b.project == project
            }

    def projects(self) -> set[str]:
        with self._lock:
            return {b.project for b in self._batches}

    def unsealed(self, project: str) -> list[tuple[str, tuple[str, ...]]]:
        """The at-least-once retry obligation: acked-but-unsealed batches."""
        with self._lock:
            return [
                (b.name, b.values)
                for b in self._batches
                if not b.sealed and b.project == project
            ]

    def forget_unsealed(self, project: str) -> list[tuple[str, tuple[str, ...]]]:
        """Drop and return the project's unsealed batches for resubmission.

        Called when a client learns its acks may not have survived (the
        flusher's dropped-row counter moved, or the shard was reopened with
        history unknown).  The forgotten batches' values are resubmitted as
        *new* batches — dropping the originals keeps a repeatedly-poisoned
        tenant from re-resubmitting the same rows every repair.
        """
        with self._lock:
            forgotten = [
                (b.name, b.values)
                for b in self._batches
                if not b.sealed and b.project == project
            ]
            self._batches = [
                b for b in self._batches if b.sealed or b.project != project
            ]
            return forgotten

    def counts(self) -> dict[str, int]:
        with self._lock:
            sealed = sum(1 for b in self._batches if b.sealed)
            rows = sum(len(b.values) for b in self._batches if b.sealed)
            return {
                "batches": len(self._batches),
                "sealed_batches": sealed,
                "sealed_rows": rows,
            }


# --------------------------------------------------------------- checkers
def check_no_lost_rows(db, ledger: AckLedger, project: str) -> list[str]:
    """Every sealed value must be readable from the recovered store."""
    violations: list[str] = []
    for name in sorted(ledger.sealed_names(project)):
        expected = ledger.sealed_values(project, name)
        stored = {
            str(row[0])
            for row in db.query(
                "SELECT value FROM logs WHERE value_name = ?", (name,)
            )
        }
        missing = expected - stored
        if missing:
            sample = ", ".join(sorted(missing)[:5])
            violations.append(
                f"{project}/{name}: {len(missing)} sealed row(s) lost "
                f"(e.g. {sample})"
            )
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


@dataclass
class InvariantReport:
    """Accumulates checker output across one chaos run."""

    violations: list[str] = field(default_factory=list)
    checks: int = 0

    def extend(self, found: Sequence[str]) -> None:
        self.checks += 1
        self.violations.extend(found)

    @property
    def ok(self) -> bool:
        return not self.violations
