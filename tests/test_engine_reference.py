"""The equality engine against a plain reference saturation.

The reference replays every expr densely and makes every merge attempt every
rule licenses, on a union-find keyed directly by ``ProbTerm``.  The engine
keeps each expr's Schmidt-frame matrix as a permutation and a phase, works
on structural term ids and skips state-function pairs whose exprs are
already linked; it must still record the same effective merges, in the same
order, and end with the same classes.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from envarkit import ProbTerm, RuleSet, generate_terms, make_state, replay, saturate, schmidt
from envarkit import EnvPhase, EnvSwap, EnvarkitError, StateExpr, SystemPhase, SystemSwap, TermSet
from envarkit import EqualityStore, UnknownTerm
from envarkit import derivation
from envarkit.derivation import (
    _ENV_SIDE,
    _SYSTEM_SIDE,
    _frames,
    RULE_NAMES,
    STATE_EQ_TOL,
    MergeRecord,
)
from envarkit.schmidt import DEGENERACY_TOL
from helpers import block_swap_pairs, spectrum_state

RULE_SETS = [RuleSet()] + [RuleSet().without(name) for name in RULE_NAMES]
# every subset of the four merging rules, normalization on
MERGING_SUBSETS = [RuleSet(*flags) for flags in itertools.product((True, False), repeat=4)]
NO_MERGING = RuleSet(pairing=False, env_locality=False, sys_locality=False, state_function=False)

# largest off-peak norm of a Schmidt-frame row that still counts as paired
_PAIR_TOL = 1e-9


class ReferenceStore:
    """Union-find over terms; the root of a class is its earliest term.

    Each distinct term is numbered once, in the order it enters (``order``),
    and the union-find runs on those numbers, so a term is hashed once per
    lookup rather than at every step of a parent chain.
    """

    def __init__(self, terms) -> None:
        self.order: dict[ProbTerm, int] = {}
        self.terms: list[ProbTerm] = []
        self.trace: list[MergeRecord] = []
        for term in terms:
            if term not in self.order:
                self.order[term] = len(self.terms)
                self.terms.append(term)
        self.parent = list(range(len(self.terms)))

    def _root(self, n: int) -> int:
        # path halving: each visited id is pointed at its grandparent
        parent = self.parent
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def find(self, term: ProbTerm) -> ProbTerm:
        return self.terms[self._root(self.order[term])]

    def merge(self, rule: str, left: ProbTerm, right: ProbTerm) -> None:
        ra, rb = self._root(self.order[left]), self._root(self.order[right])
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.trace.append(MergeRecord(rule, left, right))

    def classes(self) -> list[list[ProbTerm]]:
        grouped: dict[int, list[ProbTerm]] = {}
        for n, term in enumerate(self.terms):
            grouped.setdefault(self._root(n), []).append(term)
        return list(grouped.values())


def reference_saturate(term_set, rules: RuleSet) -> ReferenceStore:
    store = ReferenceStore(term_set.terms)
    dec = term_set.decomposition
    exprs = term_set.exprs
    amps = {expr: replay(expr, term_set.base_state, dec).amps for expr in exprs}

    if rules.pairing:
        for expr in exprs:
            frame = dec.system_vectors.conj().T @ amps[expr] @ np.conj(dec.env_vectors)
            for k in term_set.branches:
                row = frame[k - 1]
                partner = int(np.argmax(np.abs(row)))
                # the norm of the rest, not sqrt(total - peak^2), which cancels
                off = np.linalg.norm(np.delete(row, partner))
                if off <= _PAIR_TOL:
                    store.merge("PAIRING", ProbTerm("S", k, expr), ProbTerm("E", partner + 1, expr))

    for rule, enabled, side, sub in (
        ("ENV_LOCALITY", rules.env_locality, _SYSTEM_SIDE, "E"),
        ("SYS_LOCALITY", rules.sys_locality, _ENV_SIDE, "S"),
    ):
        if not enabled:
            continue
        for expr in exprs:
            if expr.transforms and isinstance(expr.transforms[-1], side) and expr.parent() in amps:
                for k in term_set.branches:
                    store.merge(rule, ProbTerm(sub, k, expr), ProbTerm(sub, k, expr.parent()))

    if rules.state_function:
        for i in range(len(exprs)):
            for j in range(i + 1, len(exprs)):
                if float(np.linalg.norm(amps[exprs[i]] - amps[exprs[j]])) <= STATE_EQ_TOL:
                    for sub in ("S", "E"):
                        for k in term_set.branches:
                            store.merge(
                                "STATE_FUNCTION", ProbTerm(sub, k, exprs[j]), ProbTerm(sub, k, exprs[i])
                            )
    return store


def assert_engine_matches_reference(term_set, rules: RuleSet) -> None:
    store = saturate(term_set, rules)
    reference = reference_saturate(term_set, rules)
    assert store.trace == reference.trace
    assert store.classes() == reference.classes()


@pytest.mark.parametrize("m", range(1, 25))
def test_equal_branch_states(m):
    # from m = 13 up the store holds at least _ARRAY_TERMS terms
    state = make_state(np.eye(m, dtype=complex) / np.sqrt(m))
    term_set = generate_terms(state, [(k, k + 1) for k in range(1, m)])
    for rules in RULE_SETS + [NO_MERGING]:
        assert_engine_matches_reference(term_set, rules)


@pytest.mark.parametrize("m", [13, 16, 24, 32])
def test_equal_branch_states_under_every_merging_rule_subset(m):
    # array-form stores; with PAIRING and STATE_FUNCTION on, the STATE_FUNCTION
    # batch is no forest of stars, and most of its edges repeat a class pair
    state = make_state(np.eye(m, dtype=complex) / np.sqrt(m))
    term_set = generate_terms(state, [(k, k + 1) for k in range(1, m)])
    assert len(term_set.terms) >= derivation._ARRAY_TERMS
    for rules in MERGING_SUBSETS:
        assert_engine_matches_reference(term_set, rules)


def test_tolerance_chain_that_is_not_transitive():
    # both restored states are within STATE_EQ_TOL of psi but not of each other
    # one degeneracy block: the top and bottom coefficients lie 0.95 * DEGENERACY_TOL apart
    lams = [3**-0.5 + 0.5 * DEGENERACY_TOL, 3**-0.5, 3**-0.5 - 0.45 * DEGENERACY_TOL]
    state = spectrum_state(lams, seed_s=1, seed_e=2)
    term_set = generate_terms(state, [(1, 2), (2, 3)])
    psi, _, restored_12, _, restored_23 = (
        replay(expr, state, term_set.decomposition).amps for expr in term_set.exprs
    )
    assert np.linalg.norm(psi - restored_12) <= STATE_EQ_TOL
    assert np.linalg.norm(psi - restored_23) <= STATE_EQ_TOL
    assert np.linalg.norm(restored_12 - restored_23) > STATE_EQ_TOL
    for rules in RULE_SETS:
        assert_engine_matches_reference(term_set, rules)


def test_pairing_does_not_cancel_off_peak_mass():
    # In the frame S^dagger A conj(E) of a Haar-rotated state each row is one
    # peak plus rounding noise of about 1e-16.  An off-peak mass computed as
    # sqrt(total - peak^2) reads 7.45e-9 for such a row whenever the total
    # rounds one ulp above peak^2, past the 1e-9 pairing tolerance; that left
    # partners unmerged for a few of these spectra, which ones depending on
    # the BLAS's rounding.
    for high in [1.5728, *np.linspace(1.5, 1.6, 201)]:
        state = spectrum_state([high, high, 1, 1, 1], seed_s=0, seed_e=1)
        term_set = generate_terms(state, [(1, 2)])
        store = saturate(term_set, RuleSet().without("STATE_FUNCTION"))
        assert len(store.classes()) == 5
        swapped = StateExpr().then(SystemSwap(1, 2))
        assert store.same_class(ProbTerm("S", 2, swapped), ProbTerm("E", 1, swapped))


@st.composite
def spectra(draw):
    """Schmidt spectra: two-level, near-degenerate, or with a tiny degenerate tail."""
    kind = draw(st.sampled_from(("two-level", "near-degenerate", "tiny-tail")))
    rank = draw(st.integers(2, 5))
    split = draw(st.integers(1, rank - 1))
    if kind == "two-level":
        high = draw(st.floats(1.0, 3.0))
        return [high] * split + [1.0] * (rank - split)
    if kind == "near-degenerate":
        # swapped-and-restored states then sit about sqrt(2) * spread from the
        # base state, on both sides of STATE_EQ_TOL
        spread = draw(st.floats(1e-12, 0.9 * DEGENERACY_TOL))
        offsets = draw(st.lists(st.floats(0.0, 1.0), min_size=rank, max_size=rank))
        return sorted((rank**-0.5 + spread * o for o in offsets), reverse=True)
    tail = 10 ** draw(st.floats(-11.5, -10.5))
    return [1.0] * split + [tail] * (rank - split)


@given(
    lams=spectra(),
    extra_env=st.integers(0, 2),
    seed=st.integers(0, 10**6),
    picks=st.lists(st.integers(0, 10**6), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_drawn_states_under_every_single_ablation(lams, extra_env, seed, picks):
    state = spectrum_state(lams, seed_s=seed, seed_e=seed + 1, dim_e=len(lams) + extra_env)
    try:
        dec = schmidt(state)
    except ValueError:
        assume(False)
    pairs = block_swap_pairs(dec)
    swaps = [pairs[p % len(pairs)] for p in picks] if pairs else []
    term_set = generate_terms(state, swaps)
    for rules in RULE_SETS:
        assert_engine_matches_reference(term_set, rules)


@pytest.mark.parametrize("seed", range(6))
def test_hand_built_term_sets_match_the_reference(seed):
    # Shuffled exprs and terms, repeated exprs and terms, and phase children
    # (some of which restore their parent's state): the engine maps each term
    # to its structural id once and must keep the reference's trace, classes
    # and roots, each root the earliest-added term of its class.
    rng = np.random.default_rng(seed)
    rank = 3 + seed % 3
    state = spectrum_state([1.0] * rank, seed_s=seed, seed_e=seed + 1, dim_e=rank + seed % 2)
    base = generate_terms(state, [(1, 2), (2, 3), (1, 2)])
    exprs = list(base.exprs)
    for n, beta in enumerate(rng.uniform(-3.0, 3.0, 4)):
        k = 1 + n % rank
        child = exprs[n].then(SystemPhase((k,), (beta,)))
        exprs += [child, child.then(EnvPhase((k,), (-beta,))), exprs[n]]
    exprs = [exprs[i] for i in rng.permutation(len(exprs))]
    terms = [ProbTerm(sub, k, expr) for expr in exprs for sub in ("S", "E") for k in base.branches]
    terms += [terms[i] for i in rng.integers(0, len(terms), 7)]
    terms = tuple(terms[i] for i in rng.permutation(len(terms)))
    term_set = TermSet(terms, tuple(exprs), base.branches, state, base.decomposition)
    for rules in RULE_SETS:
        store, reference = saturate(term_set, rules), reference_saturate(term_set, rules)
        assert store.trace == reference.trace
        assert store.classes() == reference.classes()
        assert [store.find(t) for t in terms] == [reference.find(t) for t in terms]


@pytest.mark.parametrize("seed", range(4))
def test_array_stores_match_the_reference(seed, monkeypatch):
    # every store, hand-built ones included, unites in array passes
    monkeypatch.setattr(derivation, "_ARRAY_TERMS", 0)
    test_hand_built_term_sets_match_the_reference(seed)
    test_two_level_states_at_the_tolerance(0.9 * STATE_EQ_TOL, seed)
    test_tolerance_chain_that_is_not_transitive()


def test_hand_built_term_set_missing_a_term_names_it():
    base = generate_terms(spectrum_state([1.0, 1.0], seed_s=5, seed_e=6), [(1, 2)])
    missing = ProbTerm("E", 2, base.exprs[1])
    terms = tuple(t for t in base.terms if t != missing)
    term_set = TermSet(terms, base.exprs, base.branches, base.base_state, base.decomposition)
    with pytest.raises(UnknownTerm, match=re.escape(str(missing))):
        saturate(term_set, RuleSet())


# ---------------------------------------------------------------------------
# The array union-find against the per-pair list loop
# ---------------------------------------------------------------------------

def store_of_form(size: int, array: bool) -> EqualityStore:
    """A store of ``size`` terms whose union-find takes the requested form."""
    terms = [ProbTerm("S", k, StateExpr()) for k in range(1, size + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derivation, "_ARRAY_TERMS", 0 if array else size + 1)
        store = EqualityStore(terms)
    assert isinstance(store._parent, np.ndarray) is array
    return store


@st.composite
def edge_batches(draw):
    """Ids, a batch that partly merges the store first, then batches of edges."""
    size = draw(st.integers(1, 40))
    node = st.integers(0, size - 1)
    edge = st.tuples(node, node)
    pool = draw(st.lists(edge, min_size=1, max_size=5))
    chain = draw(st.permutations(range(size)))
    links = list(zip(chain, chain[1:]))
    batch = st.one_of(
        st.lists(edge, max_size=60),
        st.lists(st.sampled_from(pool), max_size=20),  # repeated edges
        st.just(links[::-1] if draw(st.booleans()) else links),  # a long chain
        node.map(lambda n: [(n, n)]),  # a single self-loop
    )
    return size, draw(st.lists(edge, max_size=size)), draw(st.lists(batch, max_size=4))


@given(edge_batches())
@example((1, [], [[]]))  # an empty batch
@example((2, [], [[(1, 0)]]))  # a single edge
@example((5, [(0, 1), (2, 3)], [[(1, 0), (3, 4), (0, 2), (4, 1), (2, 2)]]))  # partly merged
@settings(max_examples=200, deadline=None)
def test_array_pass_keeps_what_the_list_loop_keeps(drawn):
    size, premerge, batches = drawn
    stores = [store_of_form(size, array) for array in (False, True)]
    for n, batch in enumerate([premerge, *batches]):
        lefts = np.array([a for a, _ in batch], dtype=int)
        rights = np.array([b for _, b in batch], dtype=int)
        kept = [store._unite(f"rule{n}", lefts, rights) for store in stores]
        assert kept[0] == kept[1]
    listed, arrayed = stores
    assert listed._lefts == arrayed._lefts and listed._rights == arrayed._rights
    assert list(listed.trace) == list(arrayed.trace)
    assert [listed._root_of(t) for t in range(size)] == arrayed._parent.tolist()
    assert listed.classes() == arrayed.classes()


# ---------------------------------------------------------------------------
# Schmidt-frame states and the bound-filtered STATE_FUNCTION at their edges
# ---------------------------------------------------------------------------

def test_equal_branch_state_at_the_largest_ladder_grain():
    test_equal_branch_states(32)


def two_level_state(distance: float, seed: int, rank: int = 4, extra_env: int = 2):
    """Haar-rotated state whose swapped-and-restored exprs sit ``distance`` from psi.

    Restoring a swap of a high and a low branch leaves ``gap * (s_j e_j^T -
    s_i e_i^T)`` behind, of norm ``sqrt(2) * gap``.
    """
    gap = distance / np.sqrt(2)
    split = rank // 2
    lams = [rank**-0.5 + gap] * split + [rank**-0.5] * (rank - split)
    return spectrum_state(lams, seed_s=seed, seed_e=seed + 1, dim_e=rank + extra_env)


@pytest.mark.parametrize("distance", [0.9 * STATE_EQ_TOL, 1.1 * STATE_EQ_TOL])
@pytest.mark.parametrize("seed", range(4))
def test_two_level_states_at_the_tolerance(distance, seed):
    state = two_level_state(distance, 100 * seed)
    rng = np.random.default_rng(seed)
    rank = schmidt(state).rank
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1) if i != j]
    swaps = [pairs[p] for p in rng.integers(0, len(pairs), 6)]
    term_set = generate_terms(state, swaps)
    amps = [replay(e, state, term_set.decomposition).amps for e in term_set.exprs]
    gaps = [float(np.linalg.norm(a - b)) for a in amps for b in amps]
    assert any(abs(g - distance) <= 0.02 * STATE_EQ_TOL for g in gaps)
    for rules in RULE_SETS:
        assert_engine_matches_reference(term_set, rules)


def frame_matrix(col: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The r x r Schmidt-frame matrix whose row k holds ``val[k]`` in column ``col[k]``."""
    m = np.zeros((col.size, col.size), dtype=complex)
    m[np.arange(col.size), col] = val
    return m


def test_state_function_slack_absorbs_an_inflated_projection(monkeypatch):
    # Replays of a diagonal state are exact permutations, so ||restored - psi||
    # can be set just below STATE_EQ_TOL.  Projecting on a direction along that
    # difference, one part in 1e6 too long, inflates the projection gap past
    # STATE_EQ_TOL by more than rounding does but far less than the slack:
    # the pair must still be norm-tested and merged.
    gap = STATE_EQ_TOL / np.sqrt(2) * (1 - 0.5e-6)
    lams = [(0.75 - (0.5 + gap) ** 2) ** 0.5, 0.5 + gap, 0.5]
    amps = np.zeros((3, 4), dtype=complex)
    amps[range(3), range(3)] = lams
    state = make_state(amps)
    term_set = generate_terms(state, [(2, 3)])
    dec = term_set.decomposition
    psi, _, restored = (replay(e, state, dec).amps for e in term_set.exprs)
    assert STATE_EQ_TOL * (1 - 1e-6) < np.linalg.norm(restored - psi) <= STATE_EQ_TOL
    # the engine projects Schmidt-frame matrices, so inflate along their difference
    _, _, col, val = _frames(term_set.exprs, dec)
    diff = (frame_matrix(col[2], val[2]) - frame_matrix(col[0], val[0])).real.ravel()
    direction = (1 + 1e-6) * diff / np.linalg.norm(diff)
    monkeypatch.setattr(derivation, "_direction", lambda size: direction)
    assert any(rec.rule == "STATE_FUNCTION" for rec in saturate(term_set, RuleSet()).trace)
    assert_engine_matches_reference(term_set, RuleSet())


@given(
    lams=spectra(),
    extra_env=st.integers(0, 2),
    seed=st.integers(0, 10**6),
    picks=st.lists(st.integers(0, 10**6), max_size=8),
    betas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_frame_states_match_dense_replay(lams, extra_env, seed, picks, betas):
    state = spectrum_state(lams, seed_s=seed, seed_e=seed + 1, dim_e=len(lams) + extra_env)
    try:
        dec = schmidt(state)
    except ValueError:
        assume(False)
    pairs = block_swap_pairs(dec)
    swaps = [pairs[p % len(pairs)] for p in picks] if pairs else []
    exprs = list(generate_terms(state, swaps, dec).exprs)
    # phase children and grandchildren of listed exprs, and exprs whose
    # parent is not listed
    for n, beta in enumerate(betas):
        k = 1 + n % dec.rank
        child = exprs[n % len(exprs)].then(SystemPhase((k,), (beta,)))
        exprs += [child, child.then(EnvPhase((k,), (-beta,)))]
        exprs.append(child.then(EnvPhase((k,), (beta,))).then(SystemPhase((k,), (beta,))))
    distinct, parents, col, val = _frames(exprs, dec)
    assert list(distinct) == list(dict.fromkeys(exprs))
    s, e = dec.system_vectors, dec.env_vectors
    # the difference to psi's own frame cancels the decomposition's rounding
    psi_frame = s @ frame_matrix(col[0], val[0]) @ e.T
    for n, expr in enumerate(distinct):
        m = frame_matrix(col[n], val[n])
        amps = s @ m @ e.T - psi_frame + state.amps
        assert np.max(np.abs(amps - replay(expr, state, dec).amps)) <= 1e-12
        assert sorted(col[n]) == list(range(dec.rank))
        assert np.count_nonzero(m[range(dec.rank), col[n]]) == dec.rank
        if parents[n] is not None:
            assert distinct[parents[n]] == expr.parent()


BAD_TAGS = {
    "swapS-index-zero": SystemSwap(0, 1),
    "swapE-index-above-rank": EnvSwap(1, 4),
    "phaseS-index-zero": SystemPhase((0,), (0.5,)),
    "phaseE-index-above-rank": EnvPhase((2, 4), (0.5, 0.5)),
    "swapS-same": SystemSwap(2, 2),
    "swapE-same": EnvSwap(1, 1),
    "phaseS-repeated": SystemPhase((1, 1), (0.5, 0.5)),
    "phaseE-repeated": EnvPhase((2, 3, 2), (0.1, 0.2, 0.3)),
    "phaseS-lengths": SystemPhase((1, 2), (0.5,)),
    "phaseE-lengths": EnvPhase((1,), (0.5, 0.5)),
    "phaseS-not-finite": SystemPhase((1,), (float("nan"),)),
}


@pytest.mark.parametrize("name", sorted(BAD_TAGS))
def test_malformed_tags_raise_what_replay_raises(name):
    # rank 3 with dim_e = 5, so index 4 lies inside the environment but
    # outside the Schmidt bases
    state = spectrum_state([1.0, 1.0, 1.0], seed_s=3, seed_e=4, dim_e=5)
    base = generate_terms(state, [(1, 2)])
    expr = base.exprs[1].then(BAD_TAGS[name])
    terms = base.terms + tuple(ProbTerm(sub, k, expr) for sub in ("S", "E") for k in base.branches)
    term_set = TermSet(terms, base.exprs + (expr,), base.branches, state, base.decomposition)
    with pytest.raises(EnvarkitError) as dense:
        replay(expr, state, base.decomposition)
    with pytest.raises(EnvarkitError) as engine:
        saturate(term_set, RuleSet())
    assert type(engine.value) is type(dense.value)
