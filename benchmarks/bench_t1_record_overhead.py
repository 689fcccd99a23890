"""T1 — Record overhead: instrumented vs. uninstrumented training.

The hindsight-logging line of work claims recording is low-overhead.  This
benchmark trains the same model with and without Flor instrumentation and
reports the wall-clock ratio.  Expected shape: a small constant factor
(well under 2× for this workload), dominated by log buffering and the
adaptive checkpointing policy's occasional serialization.
"""

from __future__ import annotations

import time

import pytest
from conftest import report

from repro.workloads import TrainingWorkload

EPOCH_SWEEP = [2, 4]


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.parametrize("epochs", EPOCH_SWEEP)
def test_record_overhead(benchmark, make_session, epochs):
    workload = TrainingWorkload(samples=400, features=16, epochs=epochs, batch_size=32)

    baseline_session = make_session(f"t1_base_{epochs}")
    instrumented_session = make_session(f"t1_flor_{epochs}")
    warmup_session = make_session(f"t1_warm_{epochs}")

    # Warm NumPy / import caches so the baseline is not penalized for being
    # the first training run in the process.
    workload.run(warmup_session, use_flor=False)

    baseline_seconds = _time(lambda: workload.run(baseline_session, use_flor=False))
    instrumented_seconds = benchmark.pedantic(
        lambda: _time(lambda: workload.run(instrumented_session, use_flor=True)),
        rounds=1,
        iterations=1,
    )

    overhead = instrumented_seconds / baseline_seconds if baseline_seconds else float("inf")
    report(
        f"T1: record overhead ({epochs} epochs)",
        [
            {
                "epochs": epochs,
                "baseline_s": baseline_seconds,
                "instrumented_s": instrumented_seconds,
                "overhead_x": overhead,
                "log_records": instrumented_session.logs.count(),
                "checkpoints": instrumented_session.checkpoints.saved,
            }
        ],
    )
    # Shape check: instrumentation does not blow up training time.  The
    # record path (tuple staging + background flush + off-thread checkpoint
    # writes) tightened this bound from the historical 5x; it stays loose in
    # absolute terms (observed ~2x) because tiny workloads exaggerate
    # constant costs and this also runs on noisy shared CI runners.
    assert overhead < 4.0
    assert instrumented_session.logs.count() > 0
    assert baseline_session.logs.count() == 0
