"""Seeded sweep of the stacked frame-function audit against the serial reference.

    PYTHONPATH=src:tests python tests/sweep_audit_reference.py [--audits N] [--seed S]

Draws quadratic, power (alpha in 0.5, 1, 1.5, 2, 3, 4, inf) and custom
frames in dims 3-16 with 1-540 trials and a random seed, and counts the
audits whose ``as_dict()`` differs in any bit from ``reference_audit``, which
evaluates one basis and one vector at a time.  It exits 1 if any audit
differs.  The default 2,000 audits take a few minutes, so the full sweep is
not part of the test suite; its file name keeps pytest from collecting it,
and ``test_reference_sweeps.py`` runs a short one.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from envarkit import audit
from test_gleason import random_frame, reference_audit

KINDS = ("quadratic", "power:0.5", "power:1", "power:1.5", "power:2", "power:3", "power:4",
         "power:inf", "custom")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--audits", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    counts = {kind: Counter() for kind in KINDS}
    for n in range(args.audits):
        kind = KINDS[n % len(KINDS)]
        rng = np.random.default_rng([args.seed, n])
        dim, trials = int(rng.integers(3, 17)), int(rng.integers(1, 541))
        frame, seed = random_frame(kind, dim, rng), int(rng.integers(2**31))
        counts[kind]["audits"] += 1
        counts[kind]["mismatch"] += audit(frame, dim, trials, seed).as_dict() != reference_audit(
            frame, dim, trials, seed
        )
    for kind in KINDS:
        print(kind, dict(sorted(counts[kind].items())))
    mismatches = sum(counts[kind]["mismatch"] for kind in KINDS)
    print(f"{args.audits} audits, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
