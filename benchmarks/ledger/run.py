"""Perf ledger entry point.

One workload, as the driver runs it (last stdout line is the JSON result)::

    python3 benchmarks/ledger/run.py --workload ingest_bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the program in child processes and reports the
end-to-end metrics.  ``--trace 1`` splits the time between an untraced
window (per-layer counts, client-side validity checks) and a traced one
(server on a thread of this process, per-layer self times) and reports the
per-layer metrics; spans are written under ``--trace-dir``.

Other modes::

    run.py                                   every workload, every end-to-end metric
    run.py --smoke                           in-process, ~1 s per workload, all checks on
    run.py --repeats 5 --sets 2 [--out F]    noise calibration, sets interleaved
    run.py --compare A.json B.json           the guide's comparison rule
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
import compare  # noqa: E402
from procs import HERE, REPO_ROOT, SRC_DIR  # noqa: E402

DEFAULT_TRACE_DIR = HERE / ".work" / "traces"


def _require_program() -> None:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the program is not here ({SRC_DIR}/repro is missing)", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool, trace_dir: Path) -> dict:
    """One run in the form the driver reads (plus ``problems`` and ``info``)."""
    import harness

    if not traced:
        outcome = harness.measure(name, seed, seconds)
        metrics = {
            m.name: {"value": outcome.end_to_end[m.name], "unit": m.unit}
            for m in catalogue.END_TO_END
        }
        attempted, failed = outcome.attempted, outcome.failed
        problems, info = outcome.problems, outcome.info
    else:
        untraced = harness.measure(name, seed, seconds / 2, with_counters=True, setup_repeats=1)
        traced_run = harness.trace(name, seed, seconds / 2, trace_dir)
        values = dict.fromkeys((m.name for m in catalogue.PER_LAYER), 0.0)
        values.update(untraced.per_layer)
        values.update(traced_run.per_layer)
        base = untraced.end_to_end["latency_p50_ms"]
        values["trace.overhead_share"] = (
            (traced_run.end_to_end["latency_p50_ms"] - base) / base if base else 0.0
        )
        metrics = {
            m.name: {"value": float(values[m.name]), "unit": m.unit} for m in catalogue.PER_LAYER
        }
        attempted = untraced.attempted + traced_run.attempted
        failed = untraced.failed + traced_run.failed
        problems = untraced.problems + traced_run.problems
        info = {"untraced": untraced.info, "traced": traced_run.info}
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "info": info,
    }


def print_result(name: str, seed: int, result: dict) -> None:
    print(f"{name}  seed={seed}  ops_attempted={result['attempted']}  "
          f"ops_failed={result['failed']}  correct={result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>16.6f} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def contract_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: result[key] for key in keys})


# ---------------------------------------------------------------------------
# Noise calibration
# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    filesystem = "unknown"
    try:
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            _device, mount, kind, *_rest = line.split()
            if str(HERE).startswith(mount) and len(mount) > len(best):
                best, filesystem = mount, kind
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "filesystem": filesystem,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src")),
    }


def run_in_child(name: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run as the driver would start it."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"run of {name} seed {seed} failed:\n{completed.stdout}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # Set-ups, window, drain, checks and shutdown: what the driver's time limit counts.
        "wall_s": time.perf_counter() - started,
        "metrics": {key: entry["value"] for key, entry in result["metrics"].items()},
    }


def calibrate(names: list[str], repeats: int, sets: int, seconds: float, out: Path | None) -> int:
    labels = [chr(ord("A") + i) for i in range(sets)]
    results = {
        "schema": 1,
        "claim": None,
        "fingerprint": fingerprint(),
        "run_seconds": seconds,
        "repeats": repeats,
        "sets": {label: {} for label in labels},
    }
    for name in names:
        for repeat in range(repeats):
            # Interleaved: A1 B1 A2 B2 ..., so drift hits both sets alike.
            for index, label in enumerate(labels):
                seed = 1000 * (index + 1) + repeat
                run = run_in_child(name, seed, seconds)
                results["sets"][label].setdefault(name, []).append(run)
                print(f"{name} set {label} seed {seed} ({run['wall_s']:.1f} s): " + "  ".join(
                    f"{key}={value:.5g}" for key, value in run["metrics"].items()), flush=True)
    lines, rows, passed = compare.agreement(results)
    clean = all(
        run["correct"] and run["failed"] == 0
        for runs in results["sets"].values() for per in runs.values() for run in per
    )
    results["agreement"] = rows
    results["agreement_passed"] = passed and clean
    print("\n".join(lines))
    print(f"sets agree within bounds: {passed}; every run correct with 0 failed ops: {clean}")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if passed and clean else 1


# ---------------------------------------------------------------------------
# Smoke pass
# ---------------------------------------------------------------------------


def smoke(workload: str | None, seed: int) -> int:
    """Every workload in-process under the tracer, shrunk seeding, all checks.

    Without ``--workload`` the four run as parallel children of this
    process: each spends most of its second waiting on sockets.
    """
    if workload is None:
        children = [
            subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", name,
                 "--seed", str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            for name in catalogue.workload_names()
        ]
        status = 0
        for child in children:
            output, _ = child.communicate(timeout=120)
            print(output, end="")
            status = status or child.returncode
        return status
    import harness

    outcome = harness.trace(workload, seed, 0.3, smoke=True)
    print(f"{workload}: attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={outcome.correct} attributed={outcome.per_layer['trace.attributed_share']:.3f}"
          + "".join(f"\n  PROBLEM: {problem}" for problem in outcome.problems))
    return 0 if outcome.correct and outcome.failed == 0 else 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalogue.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-dir", type=Path, default=DEFAULT_TRACE_DIR)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), type=Path)
    args = parser.parse_args(argv)

    if args.compare:
        parent, change = (json.loads(path.read_text()) for path in args.compare)
        lines, passed = compare.compare(parent, change)
        print("\n".join(lines))
        return 0 if passed else 1

    _require_program()
    names = [args.workload] if args.workload else catalogue.workload_names()

    if args.smoke:
        return smoke(args.workload, args.seed)

    if args.repeats:
        return calibrate(names, args.repeats, args.sets, args.seconds, args.out)

    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.trace_dir)
        print_result(name, args.seed, result)
        if not result["correct"]:
            status = 1
        if args.workload:
            print(contract_line(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
