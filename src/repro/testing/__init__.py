"""repro.testing — the seeded chaos harness (ROADMAP: durability under fire).

Everything needed to stress the durability story deterministically:

* :mod:`~repro.testing.chaos` — :class:`FaultPlan` (seeded, replayable
  fault schedules), :class:`ManualClock` (sleep-free lease tests) and
  :class:`SkewedClock` (seeded clock drift for lease logic);
* :mod:`~repro.testing.invariants` — the :class:`AckLedger` (keyed
  batches, sealed by resending them under their keys) and the checkers
  comparing what was sent against post-recovery state;
* :mod:`~repro.testing.procs` — :class:`ServerProcess`, which SIGKILLs a
  real ``repro serve --job-workers`` subprocess at named barriers, and
  :class:`FleetProcess`, the same management for ``repro serve
  --workers N`` plus per-worker kill/recovery introspection;
* :mod:`~repro.testing.soak` — :class:`ChaosSoak`, the mixed-traffic
  engine behind the T13 benchmark;
* the storage fault wrappers (:class:`FaultyRelationalStore`,
  :class:`FaultyBlobStore`), re-exported from :mod:`repro.storage.faults`
  where the seam lint allows their ``sqlite3`` import.

See ``docs/testing.md`` for invariant definitions and seed replay.
"""

from .chaos import (
    SEED_ENV_VAR,
    FaultPlan,
    ManualClock,
    SkewedClock,
    recent_mark,
    seeds_since,
)
from .invariants import (
    APPEND_KEY_HEADER,
    AckLedger,
    InvariantViolation,
    assert_invariants,
    check_monotone_watermark,
    check_no_lost_rows,
    check_recovery_time,
    check_single_replay,
    logs_watermark,
    post_keyed,
)
from .procs import FleetProcess, ServerProcess, ServerProcessError
from .soak import ChaosSoak, SoakReport, chaos_shard_factory

__all__ = [
    "APPEND_KEY_HEADER",
    "AckLedger",
    "ChaosSoak",
    "FaultPlan",
    "FaultyBlobStore",
    "FaultyRelationalStore",
    "FleetProcess",
    "InvariantViolation",
    "ManualClock",
    "SEED_ENV_VAR",
    "ServerProcess",
    "ServerProcessError",
    "SkewedClock",
    "SoakReport",
    "assert_invariants",
    "chaos_shard_factory",
    "check_monotone_watermark",
    "check_no_lost_rows",
    "check_recovery_time",
    "check_single_replay",
    "logs_watermark",
    "post_keyed",
    "recent_mark",
    "seeds_since",
]


def __getattr__(name: str):
    # The wrappers live under repro.storage (the seam lint confines sqlite3
    # there); importing them lazily keeps repro.storage.faults importable
    # while this package is still initializing.
    if name in ("FaultyRelationalStore", "FaultyBlobStore"):
        from ..storage import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
