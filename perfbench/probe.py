"""Set-up probe: one fresh interpreter, from `import pnrlidar.cli` to the first layer call.

Usage: python3 perfbench/probe.py SRC_DIR '["boundary", "--thresholds", "2..5"]'

Imports the package from SRC_DIR, then runs ``pnrlidar.cli.main(argv)`` with
every boundary function (see tracer.py) replaced by a stop.  The stop fires
at the first call that leaves the cli module, after the argv is parsed and
the config or grid resolved.  Prints the import time plus the time from
``main`` to the stop, in seconds.  The probe's own set-up (this module and
tracer.py, installing the stops) is not counted.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Patch


class _Reached(BaseException):
    """First call into a layer.  Not an Exception, so main's handler lets it through."""


def _stop(fn, layer):
    def stop(*args, **kwargs):
        raise _Reached

    return stop


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import pnrlidar.cli

    imported = time.perf_counter() - start
    with Patch(_stop):
        start = time.perf_counter()
        try:
            pnrlidar.cli.main(argv)
        except _Reached:
            print(imported + time.perf_counter() - start)
            return 0
    print(f"probe: {argv[0]} returned without calling into a layer", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
