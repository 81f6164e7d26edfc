"""Seeded sweep of the equality engine against the dense reference saturation.

    PYTHONPATH=src:tests python tests/sweep_engine_reference.py [--states N] [--seed S]

Draws Haar-rotated two-level, near-degenerate and small-lambda states of
rank 2-5, and in every 20th state an equal-branch state of rank 13-16 (all
with ``dim_e`` up to two above the rank), and random swap schedules with
repeats, saturates each under the full rule set and under every single-rule
ablation, each equal-branch term set also under every other subset of the
four merging rules, and counts the runs whose trace or classes differ from
``reference_saturate``.  Each term set serves all its rule sets in a seeded,
shuffled order, so a run that depended on the edges an earlier run cached
would show as a mismatch.  The equal-branch schedules are long enough for the
store to hold at least ``_ARRAY_TERMS`` terms, so those runs take the array
union-find; the ``array_stores`` count says how many did.  Every 10th state
is also saturated as a hand-built term set, shuffled, with repeated exprs
and terms and phase children, and those runs are counted as their own kind,
``hand-built``.  It exits 1 if any run differs; a state whose Schmidt
decomposition fails is counted apart and is not a mismatch.  The default
6,000 states take about four minutes, so the full sweep is not part of the
test suite; its file name keeps pytest from collecting it, and
``test_reference_sweeps.py`` runs a short one.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from envarkit import EnvarkitError, derivation, generate_terms, saturate, schmidt
from envarkit import EnvPhase, ProbTerm, SystemPhase, TermSet
from envarkit.schmidt import DEGENERACY_TOL
from helpers import block_swap_pairs, spectrum_state
from test_engine_reference import MERGING_SUBSETS, RULE_SETS, reference_saturate

KINDS = ("rotated", "near-degenerate", "small-lambda", "equal-branch", "hand-built")
EQUAL_BRANCH_EVERY = 20  # one such state costs about as much as 30 of the others
EQUAL_BRANCH_RULE_SETS = RULE_SETS + [rules for rules in MERGING_SUBSETS if rules not in RULE_SETS]
HAND_BUILT_EVERY = 10  # every other one of these is an equal-branch state


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


def hand_built(term_set: TermSet, rng: np.random.Generator) -> TermSet:
    """``term_set`` as ``test_hand_built_term_sets_match_the_reference`` builds its own.

    Phase children of the first exprs (some restoring their parent's state)
    and repeats of those exprs are added, the exprs shuffled, every term of
    each listed, seven terms repeated, and the terms shuffled.
    """
    rank = len(term_set.branches)
    exprs = list(term_set.exprs)
    for n, beta in enumerate(rng.uniform(-3.0, 3.0, 4)):
        k = 1 + n % rank
        parent = exprs[n % len(exprs)]
        child = parent.then(SystemPhase((k,), (beta,)))
        exprs += [child, child.then(EnvPhase((k,), (-beta,))), parent]
    exprs = [exprs[i] for i in rng.permutation(len(exprs))]
    terms = [ProbTerm(sub, k, expr) for expr in exprs for sub in ("S", "E") for k in term_set.branches]
    terms += [terms[i] for i in rng.integers(0, len(terms), 7)]
    terms = tuple(terms[i] for i in rng.permutation(len(terms)))
    return TermSet(terms, tuple(exprs), term_set.branches, term_set.base_state, term_set.decomposition)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
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
        pairs = block_swap_pairs(dec)
        swaps = rng.integers(dec.rank + 2, dec.rank + 6) if kind == "equal-branch" else rng.integers(0, 7)
        picks = rng.integers(0, 10**6, int(swaps))
        swaps = [pairs[p % len(pairs)] for p in picks] if pairs else []
        runs = [(kind, generate_terms(state, swaps, dec))]
        if n % HAND_BUILT_EVERY == HAND_BUILT_EVERY - 1:
            runs.append(("hand-built", hand_built(runs[0][1], rng)))
        for kind, term_set in runs:
            counts[kind]["states"] += 1
            counts[kind]["array_stores"] += len(set(term_set.terms)) >= derivation._ARRAY_TERMS
            rule_sets = EQUAL_BRANCH_RULE_SETS if kind == "equal-branch" else RULE_SETS
            for rules in [rule_sets[i] for i in rng.permutation(len(rule_sets))]:
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
