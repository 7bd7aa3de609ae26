"""Start one `toricsing` CLI invocation for the cli workload.

    PYTHONPATH=src python perfbench/launcher.py count foliation --model projective:2 --degree 1

Untraced, this does what the `toricsing` console script does.  When
PERFBENCH_SPANS names a file, it installs the wrappers of `tracer.py`,
calls `toricsing.cli.run` through them, and writes the spans and the time
it took to import `toricsing.cli` to that file as it exits.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from toricsing import cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - START) * 1000


def main() -> int:
    path = os.environ.get("PERFBENCH_SPANS")
    if path is None:
        return cli.run(sys.argv[1:])
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        return cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.dump(), "import_ms": IMPORT_MS}, fh)


if __name__ == "__main__":
    sys.exit(main())
