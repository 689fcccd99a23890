"""Multiversion hindsight logging: "log now, get data from the past".

The scenario from Section 2 of the paper:

1. A training script is run and committed several times, each version with
   different hyperparameters.  None of the runs logged the model's weight
   norm — the developer did not anticipate needing it.
2. A regression is noticed; the developer adds ``flor.log("weight", ...)``
   to the *latest* version only.
3. ``HindsightEngine.backfill`` propagates that statement into every prior
   version and replays them (differentially, using checkpoints), so the new
   column appears for all historical runs in ``flor.dataframe``.

Run with ``python examples/hindsight_debugging.py``.  The Quickstart in
the repo-root README.md covers the recording side this example replays.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import HindsightEngine, ProjectConfig, ReplayPlan, Session
from repro.workloads import VersionedScriptWorkload


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="flor_hindsight_"))
    session = Session(ProjectConfig(root, "hindsight-demo"))
    workload = VersionedScriptWorkload(versions=4, epochs=6, steps=3, refactor=True)

    print("recording 4 versions of train.py (no 'weight' logging anywhere)...")
    vids = workload.record_all_versions(session)
    for i, vid in enumerate(vids):
        print(f"  version {i}: vid={vid}")

    before = session.dataframe("loss", "weight")
    missing = sum(1 for row in before.to_records() if row.get("weight") is None)
    print(f"\nbefore backfill: {len(before)} rows, {missing} missing 'weight' values")

    print("\ndeveloper adds flor.log('weight', state['w']) to the latest version only")
    engine = HindsightEngine(session)
    report = engine.backfill(
        "train.py", new_source=workload.hindsight_source(), parallelism="process", max_workers=2
    )
    print("backfill report:", report.summary())
    for version in report.versions:
        replay = version.replay
        print(
            f"  vid={version.vid} injected={version.injected_statements} "
            f"executed={replay.iterations_executed if replay else 0} "
            f"skipped={replay.iterations_skipped if replay else 0}"
        )

    after = session.dataframe("loss", "weight")
    still_missing = sum(1 for row in after.to_records() if row.get("weight") is None)
    print(f"\nafter backfill: {len(after)} rows, {still_missing} missing 'weight' values")
    print(after.head(8).to_string())

    print("\ndifferential replay: materialize only the final epoch of each version")
    plan = ReplayPlan.only(epoch=[workload.epochs - 1])
    focused = engine.backfill("train.py", new_source=workload.hindsight_source(), plan=plan)
    print("focused backfill:", focused.summary())

    session.close()


if __name__ == "__main__":
    main()
