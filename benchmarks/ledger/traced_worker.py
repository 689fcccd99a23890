"""A fleet worker with the ledger's tracer installed.

The traced ``fleet_small`` run hosts the router in the harness but leaves
the workers as subprocesses; the supervisor is made to start each of them
through this script (see ``procs._launch_workers_traced``), which installs
the wrappers, runs the ordinary CLI, and writes the spans when the worker
exits.  Usage: ``traced_worker.py <spans file> <repro.cli arguments...>``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    spans_path, *cli_args = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracer_module

    tracer = tracer_module.install(tracer_module.Tracer())
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
