"""Run one CLI command in this process and report its wall time and peak RSS.

    PYTHONPATH=src python tools/cli_peak.py finegrain 1/1000,999/1000

The command runs through ``envarkit.cli.main`` with its stdout captured, and
one JSON line is printed: the exit code, the wall time in seconds, the
process's peak resident set size in MB (``ru_maxrss``, so run each
measurement in a fresh process) and the SHA-256 of the command's stdout, by
which two trees' outputs can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stdout
from time import perf_counter

from envarkit.cli import main


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        code = main(argv)
    wall = perf_counter() - start
    return {
        "argv": argv,
        "exit": code,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1:])))
