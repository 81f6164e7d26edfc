"""The equality store's one term sequence: added terms and rebuilt stores."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from envarkit import EqualityStore, ProbTerm, RuleSet, StateExpr, SystemSwap, TermSet
from envarkit import derivation, generate_terms, make_state, saturate
from helpers import spectrum_state


def test_add_and_find_on_a_saturated_structural_store_build_no_term(monkeypatch):
    m = 32
    state = make_state(np.eye(m, dtype=complex) / np.sqrt(m))
    term_set = generate_terms(state, [(k, k + 1) for k in range(1, m)])
    store = saturate(term_set, RuleSet())
    extra = ProbTerm("S", 1, StateExpr().then(SystemSwap(1, 3)))
    built = Counter()
    post_init = ProbTerm.__post_init__

    def counted_term(term):
        built["terms"] += 1
        post_init(term)

    monkeypatch.setattr(ProbTerm, "__post_init__", counted_term)
    store.add(extra)
    store.add(extra)
    assert store.find(extra) is extra
    assert built == Counter()
    assert store._id(extra) == len(term_set) == 4 * m * m - 2 * m
    assert len(store.classes()) == 2


@pytest.mark.parametrize("array", [False, True])
def test_from_trace_rebuilds_a_hand_built_store(array, monkeypatch):
    base = generate_terms(spectrum_state([1.0] * 3, seed_s=7, seed_e=8), [(1, 2), (2, 3)])
    rng = np.random.default_rng(1)
    terms = [base.terms[i] for i in rng.permutation(len(base.terms))]
    extra = ProbTerm("E", 2, StateExpr().then(SystemSwap(1, 3)))
    # the store_of_form switch: every store of this test takes the requested form
    monkeypatch.setattr(derivation, "_ARRAY_TERMS", 0 if array else len(terms) + 2)
    term_set = TermSet(tuple(terms), base.exprs, base.branches, base.base_state, base.decomposition)
    store = saturate(term_set, RuleSet().without("SYS_LOCALITY"))
    classes = store.classes()
    assert len(classes) > 2
    store.add(extra)
    # runs of one rule that the trace interrupts and resumes
    assert store.merge("custom", extra, classes[1][0])
    assert store.merge("PAIRING", classes[2][-1], extra)
    rebuilt = EqualityStore.from_trace(terms + [extra], store.trace)
    for s in (store, rebuilt):
        assert isinstance(s._parent, np.ndarray) is array
    assert list(rebuilt.trace) == list(store.trace)
    assert rebuilt.classes() == store.classes()
    assert [rebuilt.find(t) for t in terms + [extra]] == [store.find(t) for t in terms + [extra]]


@pytest.mark.parametrize("array", [False, True])
def test_a_store_shares_its_term_sets_terms_and_add_leaves_them_unchanged(array, monkeypatch):
    monkeypatch.setattr(derivation, "_ARRAY_TERMS", 0 if array else 10**6)
    term_set = generate_terms(make_state(np.eye(3, dtype=complex) / np.sqrt(3)), [(1, 2), (2, 3)])
    store = saturate(term_set, RuleSet())
    assert store.classes()[0][0] is term_set.terms[0]
    terms = list(term_set.terms)
    extra = ProbTerm("E", 2, StateExpr().then(SystemSwap(1, 3)))
    store.add(extra)
    assert len(term_set) == len(terms) and list(term_set.terms) == terms
    assert term_set.terms._extra == {}
    assert store.find(extra) is extra and store.classes()[-1] == [extra]
    assert store.merge("custom", terms[0], extra)
    assert store.trace[-1] == derivation.MergeRecord("custom", terms[0], extra)
    assert all(a is b for a, b in zip(store.classes()[0], terms))
    # a second saturation of the term set does not see the first store's term
    assert len(saturate(term_set, RuleSet()).classes()) == 1
