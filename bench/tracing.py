"""Spans around envarkit's public functions, installed from outside the package.

Each layer's public functions are replaced by span-recording wrappers at
*every* envarkit module attribute that names them, so calls a module makes
through a name it imported (``schmidt`` inside ``derivation``, ``replay``
inside ``saturate``) are caught as well.  Nothing under ``src/`` changes:
``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the benchmark op that caused it,
so the spans of one op share an id.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "states": ("make_state", "apply_system", "apply_env", "equal_up_to_global_phase",
               "reduced_density_system", "premeasure", "state_to_json", "state_from_json",
               "save_state", "load_state"),
    "schmidt": ("schmidt", "reconstruct", "is_even", "degeneracy_blocks",
                "decomposition_to_json", "decomposition_from_json"),
    "envariance": ("check_envariance", "oracle_best_counter", "phase_transform",
                   "swap_transform"),
    "derivation": ("replay", "born_value", "generate_terms", "saturate",
                   "equal_probabilities", "numeric_probabilities"),
    "finegrain": ("rationalize", "fine_grain", "equal_branch_derivation", "born_via_counting"),
    "gleason": ("random_basis", "frame_sum", "audit"),
    "cli": ("main",),
}


def _modules():
    names = ["envarkit"] + [f"envarkit.{layer}" for layer in LAYERS]
    return [importlib.import_module(n) for n in names]


class Tracer:
    """Span and counter registry; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, run_id: str, registry: dict | None = None) -> None:
        self.run_id = run_id
        # hash of amplitude bytes -> prescribed Schmidt rank, for rank_mismatch
        self.registry = registry or {}
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.saturated: list[tuple[object, float]] = []  # (term set, seconds)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            result = None  # stays None when fn raises
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args, result, span)

        return wrapper

    def _after_schmidt(self, args, dec, span) -> None:
        amps = args[0].amps
        rank = self.registry.get(hash(amps.tobytes()))
        if rank is not None and (dec is None or dec.rank != rank):
            self.counts["schmidt.rank_mismatch"] += 1

    def _after_saturate(self, args, store, span) -> None:
        term_set = args[0]
        if store is None:
            return
        self.counts["derivation.terms"] += len(term_set.terms)
        self.counts["derivation.classes"] += len({store.find(t) for t in term_set.terms})
        self.saturated.append((term_set, span[2] - span[1]))

    def _cached(self, name: str, fn):
        counts = self.counts
        inner = self._span(name, fn)

        def wrapper(*args, **kwargs):
            before = fn.cache_info()
            try:
                return inner(*args, **kwargs)
            finally:
                after = fn.cache_info()
                counts["finegrain.derivation_cache.hits"] += after.hits - before.hits
                counts["finegrain.derivation_cache.misses"] += after.misses - before.misses

        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        after = {"schmidt.schmidt": self._after_schmidt,
                 "derivation.saturate": self._after_saturate}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"envarkit.{layer}")
            for fname in names:
                original = getattr(module, fname)
                qual = f"{layer}.{fname}"
                if hasattr(original, "cache_info"):
                    wrapper = self._cached(qual, original)
                else:
                    wrapper = self._span(qual, original, after.get(qual))
                self._patch_everywhere(original, wrapper)

        store_cls = importlib.import_module("envarkit.derivation").EqualityStore
        merge = store_cls.merge
        counts = self.counts

        def counted_merge(store, rule, left, right):
            changed = merge(store, rule, left, right)
            counts["derivation.merge.attempts"] += 1
            counts["derivation.merge.effective"] += changed
            return changed

        self._patches.append((store_cls, "merge", merge))
        store_cls.merge = counted_merge

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading the spans --------------------------------------------------

    def by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their children cover.

        Spans come from one thread and nest properly, so direct children of a
        span are disjoint and their durations simply add up.
        """
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return sum(
            (end - start) - covered[i]
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        )

    def scaling_exponent(self) -> float:
        """Log-log slope of saturate time against the number of branches.

        One point per branch count (the median saturate time at that count);
        0.0 when fewer than two branch counts of at least 2 were saturated.
        """
        groups: dict[int, list[float]] = defaultdict(list)
        for term_set, seconds in self.saturated:
            if len(term_set.branches) >= 2:
                groups[len(term_set.branches)].append(seconds)
        if len(groups) < 2:
            return 0.0
        xs = [math.log(b) for b in groups]
        ys = [math.log(statistics.median(v)) for v in groups.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    def dump(self, path) -> None:
        doc = {"run": self.run_id, "fields": ["name", "start", "end", "parent", "op"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
