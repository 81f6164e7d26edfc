"""Set-up probe: import envarkit, warm every layer, print ``ready``.

``run.py`` launches a fresh interpreter on this file and times it from
launch to the ``ready`` line; that wall time is one sample of ``setup_s``.

    python3 bench/warm.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if __name__ == "__main__":
    import workloads

    workloads.warm_layers()
    print("ready", flush=True)
