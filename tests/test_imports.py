"""Importing envarkit loads only numpy and the standard library.

``setup_s`` in the benchmark times a fresh interpreter importing the package,
so an extra dependency or import-time work shows there first.  scipy is
installed in some environments but is not a declared dependency.  Only the
modules the import adds count: ``site`` hooks may load others at start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import envarkit
print(json.dumps(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_only_numpy_and_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = json.loads(out)
    assert "envarkit" in added and "numpy" in added
    foreign = [m for m in added if m not in sys.stdlib_module_names and m not in ("envarkit", "numpy")]
    assert foreign == []
