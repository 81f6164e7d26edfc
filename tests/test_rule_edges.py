"""Rule edges found once per term set.

A ``TermSet`` works out its frames, its id map and every merging rule's
edges on its first saturation and keeps them; every later saturation only
unites the enabled rules' edges.  Reusing one term set under any sequence of
rule sets must give what a fresh term set gives under each, and the errors
the edges raise must surface whichever rules are on.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from envarkit import (
    IndexOutOfRange,
    ProbTerm,
    RuleSet,
    SystemSwap,
    TermSet,
    UnknownTerm,
    generate_terms,
    make_state,
    save_state,
    saturate,
)
from envarkit.cli import main
from envarkit.derivation import RULE_NAMES, STATE_EQ_TOL, _state_function_pairs
from helpers import spectrum_state
from test_cli import count_calls
from test_engine_reference import NO_MERGING, RULE_SETS

EVERY_RULE_OFF = RuleSet(False, False, False, False, False)


def equal_branch_term_set(m: int) -> TermSet:
    state = make_state(np.eye(m, dtype=complex) / np.sqrt(m))
    return generate_terms(state, [(k, k + 1) for k in range(1, m)])


def rotated_term_set() -> TermSet:
    state = spectrum_state([1.0, 1.0, 1.0, 0.5], seed_s=7, seed_e=8, dim_e=6)
    return generate_terms(state, [(1, 2), (2, 3), (1, 2), (1, 3)])


def hand_built(term_set: TermSet, seed: int) -> TermSet:
    """The same terms, shuffled, as a plain tuple."""
    terms = list(term_set.terms)
    random.Random(seed).shuffle(terms)
    return TermSet(
        tuple(terms), term_set.exprs, term_set.branches, term_set.base_state, term_set.decomposition
    )


def copy_of(term_set: TermSet) -> TermSet:
    """A term set with the same contents and nothing cached."""
    if isinstance(term_set.terms, tuple):
        return replace(term_set)
    swaps = [t.transforms[0] for t in term_set.exprs[1::2]]
    return generate_terms(term_set.base_state, [(t.i, t.j) for t in swaps], term_set.decomposition)


def snapshot(store, term_set: TermSet):
    return list(store.trace), store.classes(), [store.find(t) for t in term_set.terms]


# m = 13 is the smallest equal-branch store with at least _ARRAY_TERMS terms
TERM_SETS = {
    "equal-branch-4": lambda: equal_branch_term_set(4),
    "equal-branch-13": lambda: equal_branch_term_set(13),
    "rotated": rotated_term_set,
    "hand-built": lambda: hand_built(rotated_term_set(), 3),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(TERM_SETS))
def test_one_term_set_under_shuffled_rule_sets_matches_fresh_ones(name, seed):
    term_set = TERM_SETS[name]()
    rule_sets = RULE_SETS + [NO_MERGING, EVERY_RULE_OFF]
    random.Random(seed).shuffle(rule_sets)
    for rules in rule_sets:
        fresh = copy_of(term_set)
        assert "_edges" not in vars(fresh)
        assert snapshot(saturate(term_set, rules), term_set) == snapshot(saturate(fresh, rules), fresh)


def test_frames_and_state_function_pairs_run_once_per_term_set(monkeypatch):
    frames = count_calls(monkeypatch, "envarkit.derivation", "_frames")
    pairs = count_calls(monkeypatch, "envarkit.derivation", "_state_function_pairs")
    term_sets = [rotated_term_set(), hand_built(rotated_term_set(), 0)]
    for n, term_set in enumerate(term_sets, start=1):
        for rules in RULE_SETS + [EVERY_RULE_OFF]:
            saturate(term_set, rules)
        assert len(frames) == len(pairs) == n
    edges = term_sets[0]._edges
    assert tuple(edges) == RULE_NAMES[:4]
    assert all(ids.dtype == np.int32 and ids.ndim == 1 for pair in edges.values() for ids in pair)


def test_derive_ablate_finds_the_edges_once(monkeypatch, tmp_path, capsys):
    frames = count_calls(monkeypatch, "envarkit.derivation", "_frames")
    pairs = count_calls(monkeypatch, "envarkit.derivation", "_state_function_pairs")
    path = tmp_path / "even4.json"
    save_state(make_state(np.eye(4, dtype=complex) / 2), path)
    assert main(["derive", str(path), "--ablate"]) == 0
    assert len(frames) == len(pairs) == 1
    capsys.readouterr()


def test_every_rule_off_still_names_a_missing_term():
    base = generate_terms(spectrum_state([1.0, 1.0], seed_s=5, seed_e=6), [(1, 2)])
    missing = ProbTerm("E", 2, base.exprs[1])
    terms = tuple(t for t in base.terms if t != missing)
    term_set = TermSet(terms, base.exprs, base.branches, base.base_state, base.decomposition)
    for _ in range(2):  # an exception is not cached, so the second call raises it again
        with pytest.raises(UnknownTerm, match=re.escape(str(missing))):
            saturate(term_set, EVERY_RULE_OFF)


def test_every_rule_off_still_rejects_a_malformed_tag():
    base = generate_terms(spectrum_state([1.0, 1.0, 1.0], seed_s=3, seed_e=4), [(1, 2)])
    expr = base.exprs[1].then(SystemSwap(0, 1))
    terms = base.terms + tuple(ProbTerm(sub, k, expr) for sub in ("S", "E") for k in base.branches)
    term_set = TermSet(terms, base.exprs + (expr,), base.branches, base.base_state, base.decomposition)
    for _ in range(2):
        with pytest.raises(IndexOutOfRange):
            saturate(term_set, EVERY_RULE_OFF)


@st.composite
def frame_sets(draw):
    """``(col, val)`` frames of a rank-r spectrum, with near-duplicates of drawn frames.

    A near-duplicate moves one entry of a drawn frame by 0.3-2 times
    ``STATE_EQ_TOL`` (or by nothing), scales the frame by 1 +- 1e-6, or
    conjugates it, which keeps its projection; the frames come out shuffled.
    """
    r = draw(st.integers(1, 5))
    lam = np.sort(draw(st.lists(st.floats(0.1, 1.0), min_size=r, max_size=r)))[::-1]
    lam /= np.linalg.norm(lam)
    cols, vals = [], []
    for _ in range(draw(st.integers(1, 5))):
        cols.append(np.array(draw(st.permutations(range(r)))))
        phases = draw(st.lists(st.sampled_from([0.0, np.pi]) | st.floats(-3.0, 3.0), min_size=r, max_size=r))
        vals.append(lam[draw(st.permutations(range(r)))] * np.exp(1j * np.array(phases)))
    for _ in range(draw(st.integers(0, 12))):
        source = draw(st.integers(0, len(cols) - 1))
        val = vals[source].copy()
        kind = draw(st.sampled_from(["move", "scale", "conjugate"]))
        if kind == "move":
            size = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.1, 2.0]) | st.floats(0.3, 2.0))
            val[draw(st.integers(0, r - 1))] += size * STATE_EQ_TOL * np.exp(1j * draw(st.floats(-3.0, 3.0)))
        elif kind == "scale":
            val *= 1 + draw(st.sampled_from([-1e-6, 1e-6]))
        else:
            val = val.conj()
        cols.append(cols[source])
        vals.append(val)
    order = draw(st.permutations(range(len(cols))))
    return np.array(cols)[order], np.array(vals)[order]


def frame_norm(col: np.ndarray, val: np.ndarray, i: int, j: int) -> float:
    """``||m_i - m_j||`` of the dense r x r frame matrices."""
    r = col.shape[1]
    dense = np.zeros((2, r, r), dtype=complex)
    dense[0, np.arange(r), col[i]] = val[i]
    dense[1, np.arange(r), col[j]] = val[j]
    return float(np.linalg.norm(dense[0] - dense[1]))


@given(frame_sets())
@settings(max_examples=200, deadline=None)
def test_state_function_pairs_match_a_brute_force_over_every_pair(frames):
    col, val = frames
    link = list(range(len(col)))  # a label per expr, shared by linked exprs
    expected = []
    for i, j in ((i, j) for i in range(len(col)) for j in range(i + 1, len(col))):
        norm = frame_norm(col, val, i, j)
        assume(abs(norm - STATE_EQ_TOL) > 1e-6 * STATE_EQ_TOL)  # the two norms may round apart there
        if norm <= STATE_EQ_TOL and link[i] != link[j]:
            expected.append((i, j))
            link = [link[i] if label == link[j] else label for label in link]
    assert _state_function_pairs(col, val) == expected
