"""Seeded sweep of the equality engine against the dense reference saturation.

    PYTHONPATH=src:tests python tests/sweep_engine_reference.py [--states N] [--seed S]

Draws Haar-rotated two-level, near-degenerate and small-lambda states of
rank 2-5, and in every 20th state an equal-branch state of rank 13-16 (all
with ``dim_e`` up to two above the rank), and random swap schedules with
repeats, saturates each under the full rule set and under every single-rule
ablation, and counts the runs whose trace or classes differ from
``reference_saturate``.  The equal-branch schedules are long enough for the
store to hold at least ``_ARRAY_TERMS`` terms, so those runs take the array
union-find; the ``array_stores`` count says how many did.  It exits 1 if any
run differs; a state whose Schmidt decomposition fails is counted apart and
is not a mismatch.  The default 6,000 states take minutes, so the sweep is
not part of the test suite; its file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from envarkit import EnvarkitError, derivation, generate_terms, saturate, schmidt
from envarkit.schmidt import DEGENERACY_TOL
from helpers import spectrum_state
from test_engine_reference import RULE_SETS, reference_saturate

KINDS = ("rotated", "near-degenerate", "small-lambda", "equal-branch")
EQUAL_BRANCH_EVERY = 20  # one such state costs about as much as 30 of the others


def draw_spectrum(rng: np.random.Generator, kind: str) -> list[float]:
    if kind == "equal-branch":
        return [1.0] * int(rng.integers(13, 17))
    rank = int(rng.integers(2, 6))
    split = int(rng.integers(1, rank))
    if kind == "rotated":
        return [rng.uniform(1.0, 3.0)] * split + [1.0] * (rank - split)
    if kind == "near-degenerate":
        spread = rng.uniform(1e-12, 0.9 * DEGENERACY_TOL)
        return sorted(rank**-0.5 + spread * rng.uniform(0.0, 1.0, rank), reverse=True)
    return [1.0] * split + [10 ** rng.uniform(-11.5, -10.5)] * (rank - split)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    counts = {kind: Counter() for kind in KINDS}
    for n in range(args.states):
        kind = "equal-branch" if n % EQUAL_BRANCH_EVERY == EQUAL_BRANCH_EVERY - 1 else KINDS[n % 3]
        rng = np.random.default_rng([args.seed, n])
        lams = draw_spectrum(rng, kind)
        seed = int(rng.integers(10**6))
        state = spectrum_state(lams, seed, seed + 1, dim_e=len(lams) + int(rng.integers(0, 3)))
        try:
            dec = schmidt(state)
        except EnvarkitError:
            counts[kind]["schmidt_failed"] += 1
            continue
        lam = dec.coefficients
        pairs = [
            (i, j)
            for i in range(1, dec.rank + 1)
            for j in range(1, dec.rank + 1)
            if i != j and abs(float(lam[i - 1] - lam[j - 1])) <= DEGENERACY_TOL
        ]
        swaps = rng.integers(dec.rank + 2, dec.rank + 6) if kind == "equal-branch" else rng.integers(0, 7)
        picks = rng.integers(0, 10**6, int(swaps))
        swaps = [pairs[p % len(pairs)] for p in picks] if pairs else []
        term_set = generate_terms(state, swaps, dec)
        counts[kind]["states"] += 1
        counts[kind]["array_stores"] += len(term_set.terms) >= derivation._ARRAY_TERMS
        for rules in RULE_SETS:
            store, reference = saturate(term_set, rules), reference_saturate(term_set, rules)
            counts[kind]["runs"] += 1
            counts[kind]["trace_mismatch"] += store.trace != reference.trace
            counts[kind]["class_mismatch"] += store.classes() != reference.classes()
    for kind in KINDS:
        print(kind, dict(sorted(counts[kind].items())))
    mismatches = sum(counts[kind]["trace_mismatch"] + counts[kind]["class_mismatch"] for kind in KINDS)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
