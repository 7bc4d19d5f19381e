"""Run one graphreg command with tracing, as ``python -m graphreg.cli`` would.

Usage: python3 boot.py SNAPSHOT_PATH JOB_ID CLI_ARGS...

Imports graphreg.cli (timed), installs the span wrappers, calls
``graphreg.cli.main`` with CLI_ARGS, writes the spans and counters of the
process as JSON to SNAPSHOT_PATH and exits with the command's exit code.
graphreg must be importable, e.g. through PYTHONPATH=src.
"""

import json
import sys
import time

from spans import Tracer, install


def main() -> int:
    snapshot_path, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import graphreg.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.job = job
    install(tracer)
    code = cli.main(argv)
    snapshot = tracer.snapshot()
    snapshot["import_s"] = import_s
    with open(snapshot_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
