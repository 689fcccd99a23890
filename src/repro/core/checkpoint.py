"""Adaptive checkpointing of user objects at loop-iteration boundaries.

``flor.checkpointing(model=net, optimizer=opt)`` registers objects with a
:class:`CheckpointManager`.  At the end of each iteration of the outermost
``flor.loop`` inside the block, the manager's policy decides whether to
serialize the registered objects.  Checkpoints are stored in the
``obj_store`` table keyed by the iteration's ``ctx_id``, which is exactly
what replay needs to resume execution at an arbitrary iteration.

Policies
--------
* :class:`AdaptiveCheckpointPolicy` — the paper's "low-overhead adaptive
  checkpointing": spaces checkpoints so that serialization overhead stays a
  bounded fraction of iteration cost,
* :class:`FixedIntervalPolicy` — every k-th iteration,
* :class:`EveryIterationPolicy` / :class:`NeverCheckpointPolicy` — the two
  extremes, used by the A1 ablation benchmark.
"""

from __future__ import annotations

import copy
import math
import pickle
import time
from dataclasses import dataclass
from typing import Any, Mapping, Protocol

from ..errors import CheckpointError
from ..relational.repositories import ObjectRepository
from ..runtime import BackgroundFlusher

#: Prefix for checkpoint entries in the obj_store table.
CHECKPOINT_PREFIX = "ckpt::"


class CheckpointPolicy(Protocol):
    """Decides whether to checkpoint after a given iteration."""

    def should_checkpoint(self, iteration: int, iter_seconds: float, ckpt_seconds: float) -> bool:
        """Return True to checkpoint after ``iteration``.

        ``iter_seconds`` is the measured duration of the iteration that just
        finished; ``ckpt_seconds`` is the duration of the most recent
        checkpoint (0.0 until one has been taken).
        """
        ...  # pragma: no cover - protocol definition


@dataclass
class EveryIterationPolicy:
    """Checkpoint after every iteration (maximum replay granularity)."""

    def should_checkpoint(self, iteration: int, iter_seconds: float, ckpt_seconds: float) -> bool:
        return True


@dataclass
class NeverCheckpointPolicy:
    """Never checkpoint (replay must re-execute from the start)."""

    def should_checkpoint(self, iteration: int, iter_seconds: float, ckpt_seconds: float) -> bool:
        return False


@dataclass
class FixedIntervalPolicy:
    """Checkpoint every ``interval`` iterations."""

    interval: int = 1

    def should_checkpoint(self, iteration: int, iter_seconds: float, ckpt_seconds: float) -> bool:
        if self.interval <= 0:
            return False
        return (iteration + 1) % self.interval == 0


@dataclass
class AdaptiveCheckpointPolicy:
    """Space checkpoints so overhead stays below ``max_overhead`` of run time.

    If serializing costs ``c`` seconds and an iteration costs ``t`` seconds,
    checkpointing every ``k`` iterations adds overhead ``c / (k·t)``.  The
    policy picks the smallest ``k`` with overhead ≤ ``max_overhead``, i.e.
    ``k = ceil(c / (max_overhead · t))``, re-estimated as measurements arrive.
    This mirrors the paper's "low-overhead adaptive checkpointing" claim: fast
    iterations get sparse checkpoints, slow iterations get dense ones.
    """

    max_overhead: float = 0.05
    _period: int = 1
    _since_last: int = 0

    def should_checkpoint(self, iteration: int, iter_seconds: float, ckpt_seconds: float) -> bool:
        if iter_seconds > 0 and ckpt_seconds > 0:
            self._period = max(1, math.ceil(ckpt_seconds / (self.max_overhead * iter_seconds)))
        self._since_last += 1
        if iteration == 0 or self._since_last >= self._period:
            self._since_last = 0
            return True
        return False


@dataclass(frozen=True)
class CheckpointKey:
    """Identifies one stored checkpoint (one loop iteration of one run)."""

    projid: str
    tstamp: str
    filename: str
    ctx_id: int
    loop_name: str

    @property
    def value_name(self) -> str:
        return f"{CHECKPOINT_PREFIX}{self.loop_name}"


class CheckpointManager:
    """Serializes and restores the objects registered via ``flor.checkpointing``.

    The manager is attached to a recording or replaying session.  In record
    mode it consults its policy at iteration boundaries; in replay mode it
    restores the nearest prior checkpoint when the replay plan skips ahead.

    Cost accounting: ``serialize_seconds`` is strictly the *on-thread* cost
    per checkpoint (the deep-copied snapshot) and is the only number fed to
    the policy — pickling and the object-store write are work the loop never
    waits on, so charging the policy with them would space checkpoints out
    far more than the training loop's real overhead warrants.
    ``write_seconds`` accumulates that off-thread remainder: each
    checkpoint's pickle time plus the time of the transaction that carried
    it.

    ``save()`` deep-copies the snapshot and hands it to ``flusher``, the
    session's background writer, which pickles it and writes it in the same
    transaction as the rows queued beside it.  ``restore()``, ``load()`` and
    ``available_checkpoints()`` take the flusher's ``drain()`` barrier first
    so callers never observe a checkpoint that is still in flight; they read
    through the flusher's own database handle.
    """

    def __init__(self, flusher: BackgroundFlusher, policy: CheckpointPolicy | None = None):
        self._flusher = flusher
        self._objects = ObjectRepository(flusher.db)
        self.policy = policy or AdaptiveCheckpointPolicy()
        self._registered: dict[str, Any] = {}
        self.saved = 0
        self.restored = 0
        self.serialize_seconds = 0.0
        self.write_seconds = 0.0

    # ---------------------------------------------------------- registration
    def register(self, objects: Mapping[str, Any]) -> None:
        self._registered.update(objects)

    def clear(self) -> None:
        self._registered.clear()

    @property
    def registered_names(self) -> list[str]:
        return sorted(self._registered)

    @property
    def has_registrations(self) -> bool:
        return bool(self._registered)

    # ------------------------------------------------------------- recording
    def maybe_save(
        self, key: CheckpointKey, iteration: int, iter_seconds: float
    ) -> bool:
        """Consult the policy and save a checkpoint if it says so."""
        if not self._registered:
            return False
        # On-thread cost only: pickle and store write happen off the loop's
        # critical path and must not inflate the per-checkpoint cost the
        # adaptive policy spaces checkpoints by.
        last_cost = self.serialize_seconds / self.saved if self.saved else 0.0
        if not self.policy.should_checkpoint(iteration, iter_seconds, last_cost):
            return False
        self.save(key)
        return True

    def save(self, key: CheckpointKey) -> None:
        """Unconditionally serialize the registered objects under ``key``."""
        start = time.perf_counter()
        state = self._snapshot_state()
        # Deep-copy inline so later mutations by the training loop cannot
        # leak into the checkpoint, then hand pickling and the store write
        # to the flusher.  Unpicklable state surfaces as a CheckpointError at
        # the next drain barrier.
        try:
            snapshot = copy.deepcopy(state)
        except Exception as exc:
            raise CheckpointError(f"cannot snapshot checkpoint objects: {exc}") from exc
        self.serialize_seconds += time.perf_counter() - start
        self._flusher.submit_checkpoint(
            (key.projid, key.tstamp, key.filename, key.ctx_id, key.value_name),
            snapshot,
            on_written=self._account_write,
        )
        self.saved += 1

    def _account_write(self, pickle_seconds: float, write_seconds: float) -> None:
        # Runs on the writing thread after the checkpoint's transaction.
        self.write_seconds += pickle_seconds + write_seconds

    def _snapshot_state(self) -> dict[str, Any]:
        """Extract picklable state from registered objects.

        Objects exposing ``state_dict()`` (the convention used by the NumPy
        ML substrate, mirroring torch) contribute their state dict; everything
        else is pickled wholesale.
        """
        state: dict[str, Any] = {}
        for name, obj in self._registered.items():
            getter = getattr(obj, "state_dict", None)
            state[name] = getter() if callable(getter) else obj
        return state

    # --------------------------------------------------------------- restore
    def load(self, key: CheckpointKey) -> dict[str, Any] | None:
        """Load the raw checkpoint payload stored under ``key`` (or None)."""
        self._flusher.drain()
        record = self._objects.get(key.projid, key.tstamp, key.filename, key.ctx_id, key.value_name)
        if record is None:
            return None
        try:
            return pickle.loads(record.contents)
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint at ctx_id={key.ctx_id}: {exc}") from exc

    def restore(self, key: CheckpointKey) -> bool:
        """Restore registered objects in place from the checkpoint at ``key``.

        Objects with ``load_state_dict`` restore through it; plain dicts and
        lists are mutated in place (so the user's variable still points at
        the restored contents); anything else is rebound inside the manager,
        which only helps callers that re-read it from the registry.
        """
        state = self.load(key)
        if state is None:
            return False
        for name, payload in state.items():
            if name not in self._registered:
                continue
            target = self._registered[name]
            setter = getattr(target, "load_state_dict", None)
            if callable(setter):
                setter(payload)
            elif isinstance(target, dict) and isinstance(payload, dict):
                target.clear()
                target.update(payload)
            elif isinstance(target, list) and isinstance(payload, list):
                target[:] = payload
            else:
                self._registered[name] = payload
        self.restored += 1
        return True

    def available_checkpoints(self, projid: str, tstamp: str, filename: str) -> list[tuple[int, str]]:
        """Return ``(ctx_id, loop_name)`` of all checkpoints stored for a run."""
        self._flusher.drain()
        out = []
        for _ts, _fn, ctx_id, value_name in self._objects.list_keys(projid, tstamp):
            if _fn == filename and value_name.startswith(CHECKPOINT_PREFIX):
                out.append((ctx_id, value_name[len(CHECKPOINT_PREFIX):]))
        return sorted(out)
