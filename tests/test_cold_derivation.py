"""The array paths of a cold derivation against the paths they replace.

* ``generate_terms`` hands ``_frames`` its exprs' skeleton; the same exprs as
  a plain list take one pass that builds it.  Both must give the same frames
  and the same saturation.
* ``equal_branch_derivation`` reads the even state's Schmidt form off
  instead of calling ``schmidt``; the store must not tell the difference.
* A batch in which every edge has an end no other edge touches skips the
  Boruvka rounds; it must keep what a union in order keeps.
* Hand-built exprs have each swap tag checked once, in (tag count, kind,
  row) order, and a hand-built term set's stores share one term sequence.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envarkit import (
    EnvarkitError,
    EnvPhase,
    EnvSwap,
    EqualityStore,
    ProbTerm,
    RuleSet,
    StateExpr,
    SystemPhase,
    SystemSwap,
    TermSet,
    derivation,
    generate_terms,
    make_state,
    numeric_probabilities,
    replay,
    saturate,
    schmidt,
)
from envarkit.derivation import _frames, _root, _union_in_order
from envarkit.finegrain import _derive_grain, _even_decomposition
from envarkit.schmidt import reconstruct
from helpers import spectrum_state
from test_engine_reference import BAD_TAGS, RULE_SETS, store_of_form


def even_state(m: int):
    return make_state(np.eye(m, dtype=complex) / np.sqrt(m))


def snapshot(store, term_set: TermSet):
    return list(store.trace), store.classes(), [store.find(t) for t in term_set.terms]


# ---------------------------------------------------------------------------
# The skeleton generate_terms hands over, against the one-pass skeleton
# ---------------------------------------------------------------------------

@st.composite
def swap_schedules(draw):
    """A rank, the swaps of a schedule over it, and whether its spectrum is
    one block (else two, split at the middle, with swaps inside each)."""
    rank = draw(st.integers(2, 6))
    one_block = draw(st.booleans())
    split = rank if one_block else rank // 2
    blocks = [b for b in (range(1, split + 1), range(split + 1, rank + 1)) if len(b) > 1]
    pair = st.sampled_from(blocks).flatmap(
        lambda block: st.lists(st.sampled_from(block), min_size=2, max_size=2, unique=True)
    )
    swaps = [tuple(p) for p in draw(st.lists(pair, max_size=10))] if blocks else []
    # repeat some pairs, and reverse some, such as (2, 1) after (1, 2)
    extra = draw(st.lists(st.sampled_from(swaps), max_size=4)) if swaps else []
    swaps += [p[::-1] if draw(st.booleans()) else p for p in extra]
    return rank, one_block, swaps


@given(swap_schedules(), st.integers(0, 10**6))
@example((3, True, [(1, 2), (2, 1), (1, 2), (2, 3)]), 0)
@example((2, True, []), 0)
@settings(max_examples=60, deadline=None)
def test_generated_and_listed_exprs_give_one_frame_and_one_saturation(schedule, seed):
    rank, one_block, swaps = schedule
    lams = [1.0] * rank if one_block else [1.0] * (rank // 2) + [0.5] * (rank - rank // 2)
    state = spectrum_state(lams, seed_s=seed, seed_e=seed + 1, dim_e=rank + seed % 3)
    term_set = generate_terms(state, swaps)
    dec = term_set.decomposition
    generated = _frames(term_set.exprs, dec)
    listed = _frames(list(term_set.exprs), dec)
    assert list(generated[0]) == list(listed[0])
    assert generated[1] == listed[1]
    for mine, theirs in zip(generated[2:], listed[2:]):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    hand_built = TermSet(tuple(term_set.terms), tuple(term_set.exprs), term_set.branches, state, dec)
    for rules in RULE_SETS:
        assert snapshot(saturate(term_set, rules), term_set) == snapshot(saturate(hand_built, rules), hand_built)


# an unlisted parent at each depth: the bad tag sits at depth 2 or 3
UNLISTED_PARENTS = {
    "depth-2": StateExpr((SystemSwap(2, 3),)),
    "depth-3": StateExpr((EnvSwap(1, 3), SystemSwap(2, 3))),
}


def engine_error(expr: StateExpr, base: TermSet):
    terms = base.terms + tuple(ProbTerm(sub, k, expr) for sub in ("S", "E") for k in base.branches)
    term_set = TermSet(terms, base.exprs + (expr,), base.branches, base.base_state, base.decomposition)
    with pytest.raises(EnvarkitError) as engine:
        saturate(term_set, RuleSet())
    return engine.value


@pytest.mark.parametrize("depth", sorted(UNLISTED_PARENTS))
@pytest.mark.parametrize("name", sorted(BAD_TAGS))
def test_a_malformed_tag_under_an_unlisted_parent_raises_as_at_depth_one(name, depth):
    # the state of test_malformed_tags_raise_what_replay_raises
    state = spectrum_state([1.0, 1.0, 1.0], seed_s=3, seed_e=4, dim_e=5)
    base = generate_terms(state, [(1, 2)])
    expr = UNLISTED_PARENTS[depth].then(BAD_TAGS[name])
    assert expr.parent() not in base.exprs
    with pytest.raises(EnvarkitError) as dense:
        replay(expr, state, base.decomposition)
    shallow = engine_error(StateExpr((BAD_TAGS[name],)), base)
    deep = engine_error(expr, base)
    assert type(deep) is type(shallow) is type(dense.value)
    assert str(deep) == str(shallow)


# ---------------------------------------------------------------------------
# The even state's Schmidt form, read off
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 65))
def test_the_read_off_decomposition_is_the_even_states_schmidt_form(m):
    state = even_state(m)
    dec = _even_decomposition(m)
    assert np.max(np.abs(reconstruct(dec).amps - state.amps)) <= 1e-15
    assert np.max(np.abs(dec.coefficients - schmidt(state).coefficients)) <= 1e-12
    swaps = [(k, k + 1) for k in range(1, m)]
    term_set, store, shares = _derive_grain.__wrapped__(m)
    assert term_set.decomposition.coefficients.tobytes() == dec.coefficients.tobytes()
    computed = generate_terms(state, swaps)  # through schmidt
    reference = saturate(computed, RuleSet())
    assert list(store.trace) == list(reference.trace)
    assert store.classes() == reference.classes()
    assert list(shares) == [p for _, p in numeric_probabilities(reference, state, RuleSet())]


# ---------------------------------------------------------------------------
# Batches whose every edge has an end of its own
# ---------------------------------------------------------------------------

BATCHES = {
    # a matching: no two ends share a class
    "matching": (10, [], [(0, 5), (3, 1), (7, 2), (4, 9)]),
    # a matching of classes, some of them merged already
    "matching-of-classes": (8, [(0, 4), (6, 2)], [(4, 1), (7, 2), (3, 5)]),
    # stars: each edge has a leaf, and a leaf may be the smaller end
    "stars": (9, [(5, 6)], [(6, 1), (2, 6), (8, 3), (3, 0), (7, 4)]),
}


@pytest.mark.parametrize("array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_a_batch_of_edges_with_ends_of_their_own_keeps_every_edge(name, array):
    size, premerge, batch = BATCHES[name]
    store = store_of_form(size, array)
    parent = list(range(size))
    for n, edges in enumerate((premerge, batch)):
        lefts = np.array([a for a, _ in edges], dtype=np.int64)
        rights = np.array([b for _, b in edges], dtype=np.int64)
        kept = _union_in_order(parent, lefts, rights)
        before = len(store._lefts)
        assert store._unite(f"rule{n}", lefts, rights) == len(kept)
        assert list(store._lefts[before:]) == lefts[kept].tolist()
    assert kept == list(range(len(batch)))
    assert [store._root_of(t) for t in range(size)] == [_root(parent, t) for t in range(size)]


# ---------------------------------------------------------------------------
# One check per swap tag, one term sequence per term set
# ---------------------------------------------------------------------------

GOOD_TAGS = [SystemSwap(1, 2), EnvSwap(2, 3), SystemPhase((1,), (0.3,)), EnvPhase((3,), (-0.7,))]
BAD_SWAPS = [
    SystemSwap(0, 1), EnvSwap(1, 4), SystemSwap(2, 2), EnvSwap(3, 3),
    SystemSwap(1.5, 2), EnvSwap(2, 10**5000), SystemSwap(-1, 2),
]
SWAP_KIND = {SystemSwap: 0, EnvSwap: 1}


@st.composite
def malformed_exprs(draw):
    """An expr of up to three good tags and then a malformed swap, and whether its parent is listed."""
    good = StateExpr(tuple(draw(st.lists(st.sampled_from(GOOD_TAGS), max_size=3))))
    return good.then(draw(st.sampled_from(BAD_SWAPS))), draw(st.booleans())


def pass_order(exprs) -> list[StateExpr]:
    """Distinct exprs in the order they get rows: the listed ones, then each
    unlisted prefix as a row's parent first needs it."""
    rows = list(dict.fromkeys(exprs))
    for expr in rows:
        if expr.transforms and expr.parent() not in rows:
            rows.append(expr.parent())
    return rows


@given(st.lists(malformed_exprs(), min_size=1, max_size=2), st.integers(0, 10**6))
@example([(StateExpr((SystemSwap(1, 2), SystemSwap(2, 2))), False), (StateExpr((EnvSwap(1, 4),)), True)], 0)
@example([(StateExpr((EnvSwap(3, 3),)), True), (StateExpr((SystemSwap(0, 1),)), False)], 0)
@settings(max_examples=80, deadline=None)
def test_the_first_malformed_swap_in_group_order_raises_what_replay_raises(drawn, seed):
    state = spectrum_state([1.0, 1.0, 1.0], seed_s=3, seed_e=4, dim_e=5)
    base = generate_terms(state, [(1, 2)])
    exprs = list(base.exprs)
    for expr, parent_listed in drawn:
        exprs += [expr, expr.parent()] if parent_listed else [expr]
    random.Random(seed).shuffle(exprs)
    rows = pass_order(exprs)
    bad = [expr for expr, _ in drawn]
    first = min(bad, key=lambda e: (len(e.transforms), SWAP_KIND[type(e.transforms[-1])], rows.index(e)))
    with pytest.raises(EnvarkitError) as dense:
        replay(first, state, base.decomposition)
    terms = tuple(ProbTerm(x, k, expr) for expr in rows[: len(set(exprs))] for x in "SE" for k in base.branches)
    term_set = TermSet(terms, tuple(exprs), base.branches, state, base.decomposition)
    with pytest.raises(EnvarkitError) as engine:
        saturate(term_set, RuleSet())
    assert type(engine.value) is type(dense.value)
    assert str(engine.value) == str(dense.value)


def test_generated_exprs_under_a_smaller_rank_are_checked_as_listed_exprs():
    big = generate_terms(spectrum_state([1.0] * 4, seed_s=1, seed_e=2), [(1, 2), (3, 4)])
    state = spectrum_state([1.0] * 3, seed_s=3, seed_e=4)
    dec = schmidt(state)
    with pytest.raises(EnvarkitError) as dense:
        replay(big.exprs[3], state, dec)
    with pytest.raises(EnvarkitError) as engine:
        saturate(TermSet(big.terms, big.exprs, (1, 2, 3), state, dec), RuleSet())
    assert type(engine.value) is type(dense.value)
    assert str(engine.value) == str(dense.value) == "index 4 outside 1..3"


def test_saturating_a_hand_built_set_three_times_builds_one_term_sequence(monkeypatch):
    base = generate_terms(spectrum_state([1.0] * 3, seed_s=7, seed_e=8), [(1, 2), (2, 3)])
    terms = tuple(base.terms)[::-1]
    hand_built = TermSet(terms, tuple(base.exprs), base.branches, base.base_state, base.decomposition)
    built = Counter()
    for cls in (derivation._Terms, EqualityStore):
        def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    stores = [saturate(hand_built, rules) for rules in (RuleSet(), RuleSet().without("PAIRING"), RuleSet())]
    assert built == Counter({"_Terms": 1, "EqualityStore": 3})
    assert all(store._terms is hand_built._terms for store in stores)
    assert list(hand_built._terms) == list(terms)
    reference = saturate(base, RuleSet())
    assert len(stores[0].classes()) == len(reference.classes())
