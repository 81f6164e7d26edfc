"""Time a cold equal-branch derivation stage by stage.

    PYTHONPATH=src python tools/engine_stages.py --grains 8 16 32 64 --rounds 40
    PYTHONPATH=src python tools/engine_stages.py --grains 2 4 8 12 13 --array-terms 0 1000000000

Each round runs one cold derivation of every grain, in a shuffled order, so
the grains share the host's slow and fast spells.  A derivation is split
into the stages of ``finegrain._derive_grain``: building the state, its
Schmidt form (read off by ``finegrain._even_decomposition``, or
``schmidt`` in a tree without it), ``generate_terms``, the term set's rule
edges (``TermSet._edges``: frames, id map and every rule's pairs), a fresh
store, each rule's ``_unite`` in ``saturate``'s order, and
``numeric_probabilities``.  Each stage is timed with ``time.thread_time``,
on one CPU the process pins itself to, and the JSON printed gives, per grain
and stage, the median and the quartiles in microseconds.  ``--array-terms``
takes values for ``derivation._ARRAY_TERMS``, the store size from which the
union-find takes its array form (0: every store takes it; a size above every
store's: none does).  Each value is timed in every round, and with several
values each grain is reported once per value, keyed ``M@N``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time

import numpy as np

from envarkit import derivation, finegrain, schmidt
from envarkit.derivation import EqualityStore, RuleSet, generate_terms, numeric_probabilities


def derive_in_stages(m: int) -> dict[str, float]:
    """One cold derivation of grain ``m``, as ``finegrain._derive_grain`` runs it, in seconds per stage."""
    times: dict[str, float] = {}
    clock = time.thread_time

    def stage(name, run, *args):
        start = clock()
        out = run(*args)
        times[name] = clock() - start
        return out

    decompose = getattr(finegrain, "_even_decomposition", None)
    state = stage("make_state", finegrain.make_state, np.eye(m, dtype=complex) / np.sqrt(m))
    if decompose is None:
        dec = stage("decomposition", schmidt, state)
    else:
        dec = stage("decomposition", decompose, m)
    swaps = tuple((k, k + 1) for k in range(1, m))
    term_set = stage("generate_terms", generate_terms, state, swaps, dec)
    edges = stage("edges", lambda: term_set._edges)
    store = stage("store", EqualityStore, term_set.terms)
    for rule, (lefts, rights) in edges.items():
        stage(f"unite.{rule}", store._unite, rule, lefts, rights)
    stage("numeric_probabilities", numeric_probabilities, store, state, RuleSet(), dec)
    times["total"] = sum(times.values())
    return times


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grains", type=int, nargs="+", default=[8, 16, 32, 64])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=None, help="CPU to pin to (default: the last allowed)")
    parser.add_argument(
        "--array-terms", type=int, nargs="+", default=None,
        help="store sizes from which the array form is taken, each timed in every round",
    )
    args = parser.parse_args(argv)
    cpu = max(os.sched_getaffinity(0)) if args.cpu is None else args.cpu
    os.sched_setaffinity(0, {cpu})
    rng = random.Random(args.seed)
    thresholds = args.array_terms or [derivation._ARRAY_TERMS]
    runs = [(n, m) for n in thresholds for m in args.grains]
    samples: dict[tuple[int, int], list[dict[str, float]]] = {run: [] for run in runs}
    for n, m in runs:  # a warm-up derivation per run, not recorded
        derivation._ARRAY_TERMS = n
        derive_in_stages(m)
    for _ in range(args.rounds):
        order = list(runs)
        rng.shuffle(order)
        for n, m in order:
            derivation._ARRAY_TERMS = n
            samples[n, m].append(derive_in_stages(m))
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "rounds": args.rounds,
        "array_terms": thresholds,
        "unit": "us",
        "grains": {},
    }
    for (n, m), times in samples.items():
        # with several thresholds, each grain is keyed "M@N"
        report["grains"][str(m) if len(thresholds) == 1 else f"{m}@{n}"] = {
            name: {
                q: round(float(np.percentile([run[name] for run in times], p)) * 1e6, 1)
                for q, p in (("p25", 25), ("median", 50), ("p75", 75))
            }
            for name in times[0]
        }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
