"""Equality engine: term generation, saturation, ablation, soundness."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from envarkit import (
    EnvarkitError,
    EnvSwap,
    EqualityStore,
    IncompleteDerivation,
    MergeRecord,
    ProbTerm,
    RuleSet,
    StateExpr,
    SystemSwap,
    UnevenCoefficients,
    UnknownTerm,
    born_value,
    equal_probabilities,
    generate_terms,
    make_state,
    numeric_probabilities,
    replay,
    saturate,
    schmidt,
)
from envarkit import derivation
from helpers import bell_state, spectrum_state, uneven_state

S1 = ProbTerm("S", 1, StateExpr())
S2 = ProbTerm("S", 2, StateExpr())
MERGE_RULES = ("PAIRING", "ENV_LOCALITY", "SYS_LOCALITY", "STATE_FUNCTION")


def even_state(dim: int, rotated_seed: int | None = None):
    if rotated_seed is None:
        return make_state(np.eye(dim, dtype=complex) / np.sqrt(dim))
    lam = np.full(dim, 1 / np.sqrt(dim))
    return spectrum_state(lam, seed_s=rotated_seed, seed_e=rotated_seed + 1)


def adjacent_swaps(dim: int):
    return [(k, k + 1) for k in range(1, dim)]


class TestGenerateTerms:
    def test_bell_single_swap_population(self):
        term_set = generate_terms(bell_state(), [(1, 2)])
        assert len(term_set) == 12
        assert len(term_set.exprs) == 3

    def test_no_swaps(self):
        assert len(generate_terms(bell_state(), [])) == 4

    def test_dim3_two_swaps(self):
        term_set = generate_terms(even_state(3), [(1, 2), (2, 3)])
        assert len(term_set.exprs) == 5
        assert len(term_set) == 30

    def test_a_repeated_swap_lists_each_expr_once(self):
        term_set = generate_terms(bell_state(), [(1, 2), (1, 2)])
        assert term_set.exprs == generate_terms(bell_state(), [(1, 2)]).exprs
        assert len(term_set.exprs) == 3 and len(term_set) == 12
        term_set = generate_terms(even_state(3), [(1, 2), (2, 3), (1, 2), (2, 3)])
        assert term_set.exprs == generate_terms(even_state(3), [(1, 2), (2, 3)]).exprs
        assert len(set(term_set.terms)) == len(term_set) == 30

    def test_uneven_pair_rejected(self):
        with pytest.raises(UnevenCoefficients):
            generate_terms(uneven_state(), [(1, 2)])

    def test_term_rendering(self):
        assert str(S1) == "p(S:1; psi)"
        swapped = StateExpr().then(SystemSwap(1, 2))
        assert str(ProbTerm("E", 2, swapped)) == "p(E:2; swapS(1,2)·psi)"


class TestSaturation:
    def test_full_rules_unify_bell_branches(self):
        store = saturate(generate_terms(bell_state(), [(1, 2)]), RuleSet())
        equal, chain = equal_probabilities(store, S1, S2)
        assert equal
        assert len(chain) == 5
        assert {rec.rule for rec in chain} == set(MERGE_RULES)

    @pytest.mark.parametrize("rule", MERGE_RULES)
    def test_single_ablation_breaks_equality(self, rule):
        store = saturate(generate_terms(bell_state(), [(1, 2)]), RuleSet().without(rule))
        equal, chain = equal_probabilities(store, S1, S2)
        assert not equal and chain == []

    def test_state_function_alone_insufficient(self):
        rules = RuleSet(pairing=False, env_locality=False, sys_locality=False)
        store = saturate(generate_terms(bell_state(), [(1, 2)]), rules)
        assert not store.same_class(S1, S2)

    def test_self_query_has_empty_trace(self):
        store = saturate(generate_terms(bell_state(), [(1, 2)]), RuleSet())
        equal, chain = equal_probabilities(store, S1, S1)
        assert equal and chain == []

    def test_unknown_term(self):
        store = saturate(generate_terms(bell_state(), [(1, 2)]), RuleSet())
        with pytest.raises(UnknownTerm):
            store.find(ProbTerm("S", 9, StateExpr()))

    def test_trace_replay_reproduces_partition(self):
        term_set = generate_terms(even_state(3), [(1, 2), (2, 3)])
        store = saturate(term_set, RuleSet())
        replayed = EqualityStore.from_trace(term_set.terms, store.trace)
        original = {frozenset(map(str, cls)) for cls in store.classes()}
        assert {frozenset(map(str, cls)) for cls in replayed.classes()} == original

    def test_trace_replay_reproduces_a_large_store(self):
        # 4,032 terms, so both stores take the array form
        term_set = generate_terms(even_state(32), adjacent_swaps(32))
        store = saturate(term_set, RuleSet())
        replayed = EqualityStore.from_trace(term_set.terms, store.trace)
        assert isinstance(replayed._parent, np.ndarray)
        assert list(replayed.trace) == list(store.trace)
        assert replayed.classes() == store.classes()

    def test_terms_and_records_are_built_only_when_read(self, monkeypatch):
        built = Counter()
        post_init = ProbTerm.__post_init__

        def counted_term(term):
            built["terms"] += 1
            post_init(term)

        def counted_record(*args):
            built["records"] += 1
            return MergeRecord(*args)

        monkeypatch.setattr(ProbTerm, "__post_init__", counted_term)
        monkeypatch.setattr(derivation, "MergeRecord", counted_record)
        m = 32
        term_set = generate_terms(even_state(m), adjacent_swaps(m))
        store = saturate(term_set, RuleSet())
        assert len(term_set) == 4 * m * m - 2 * m
        assert len(store.trace) == len(term_set) - 1
        assert store.same_class(ProbTerm("S", 1, StateExpr()), ProbTerm("E", m, StateExpr()))
        assert built == Counter(terms=2)  # only the two query terms
        trace, classes = list(store.trace), store.classes()
        assert built == Counter(terms=2 + len(term_set), records=len(trace))
        # each term and record is built once per store
        assert list(store.trace) == trace and store.classes() == classes
        assert store.find(trace[-1].right) is classes[0][0]
        assert built == Counter(terms=2 + len(term_set), records=len(trace))

    def test_minimal_trace_on_a_hand_built_store(self):
        a, b, c, d = (ProbTerm("S", k, StateExpr()) for k in range(1, 5))
        store = EqualityStore([a, b, c])
        store.add(d)
        assert store.merge("PAIRING", b, c) and store.merge("custom", d, a)
        assert not store.merge("PAIRING", c, b)
        assert store.merge("PAIRING", c, d)
        assert store.minimal_trace(b, a) == [
            MergeRecord("PAIRING", b, c),
            MergeRecord("PAIRING", c, d),
            MergeRecord("custom", d, a),
        ]
        assert [store.find(t) for t in (a, b, c, d)] == [a, a, a, a]
        assert len(store.trace) == 3


    def test_add_on_a_structural_store_numbers_the_new_term_last(self):
        term_set = generate_terms(even_state(3), [(1, 2)])
        store = saturate(term_set, RuleSet())
        roots = [store.find(t) for t in term_set.terms]
        classes = store.classes()
        chain = store.minimal_trace(S2, S1)
        extra = ProbTerm("S", 2, StateExpr().then(SystemSwap(1, 2)).then(SystemSwap(2, 3)))
        store.add(extra)
        store.add(extra)
        assert store._id(extra) == len(term_set) == 18
        assert store.classes() == classes + [[extra]]
        assert store.merge("custom", extra, S2) and not store.merge("custom", S1, extra)
        assert [store.find(t) for t in term_set.terms] == roots
        assert store.find(extra) is store.find(S2) is classes[0][0]
        assert store.classes() == [cls + [extra] if S2 in cls else cls for cls in classes]
        assert store.minimal_trace(extra, S1) == [MergeRecord("custom", extra, S2)] + chain
        assert store.trace[-1] == MergeRecord("custom", extra, S2)


class TestNumericProbabilities:
    def test_bell_halves(self):
        store = saturate(generate_terms(bell_state(), [(1, 2)]), RuleSet())
        probs = numeric_probabilities(store, bell_state(), RuleSet())
        assert probs == [(1, Fraction(1, 2)), (2, Fraction(1, 2))]

    def test_dim4_quarters(self):
        state = even_state(4)
        store = saturate(generate_terms(state, adjacent_swaps(4)), RuleSet())
        probs = numeric_probabilities(store, state, RuleSet())
        assert [p for _, p in probs] == [Fraction(1, 4)] * 4

    def test_ablated_run_raises(self):
        store = saturate(generate_terms(bell_state(), [(1, 2)]), RuleSet().without("pairing"))
        with pytest.raises(IncompleteDerivation):
            numeric_probabilities(store, bell_state(), RuleSet())

    def test_normalization_required(self):
        rules = RuleSet(normalization=False)
        store = saturate(generate_terms(bell_state(), [(1, 2)]), rules)
        with pytest.raises(IncompleteDerivation, match="normalization"):
            numeric_probabilities(store, bell_state(), rules)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_every_even_dimension_closes(self, dim):
        for state in (even_state(dim), even_state(dim, rotated_seed=dim * 11)):
            store = saturate(generate_terms(state, adjacent_swaps(dim)), RuleSet())
            probs = numeric_probabilities(store, state, RuleSet())
            assert [p for _, p in probs] == [Fraction(1, dim)] * dim


class TestReplayAndSoundness:
    def test_replay_swap_then_counterswap_is_identity(self):
        state = bell_state()
        expr = StateExpr().then(SystemSwap(1, 2))
        swapped = replay(expr, state)
        assert np.linalg.norm(swapped.amps - state.amps) > 0.5
        restored = replay(expr.then(EnvSwap(1, 2)), state)
        assert np.linalg.norm(restored.amps - state.amps) <= 1e-12

    def test_born_values_on_bell(self):
        dec = schmidt(bell_state())
        assert born_value(S1, bell_state(), dec) == pytest.approx(0.5)
        assert born_value(ProbTerm("E", 2, StateExpr()), bell_state(), dec) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "dim,rules",
        [(2, RuleSet()), (3, RuleSet()), (4, RuleSet().without("pairing")), (4, RuleSet())],
    )
    def test_classes_never_merge_born_distinguishable_terms(self, dim, rules):
        for state in (even_state(dim), even_state(dim, rotated_seed=dim * 7)):
            term_set = generate_terms(state, adjacent_swaps(dim))
            store = saturate(term_set, rules)
            for cls in store.classes():
                values = [born_value(t, state, term_set.decomposition) for t in cls]
                assert max(values) - min(values) <= 1e-9

    def test_rotated_even_state_derivation(self):
        # engine operates in the state's own Schmidt basis, not the product basis
        state = even_state(3, rotated_seed=99)
        store = saturate(generate_terms(state, adjacent_swaps(3)), RuleSet())
        probs = numeric_probabilities(store, state, RuleSet())
        assert [p for _, p in probs] == [Fraction(1, 3)] * 3


def test_ruleset_without_unknown_rule():
    with pytest.raises(ValueError, match="unknown rule"):
        RuleSet().without("telepathy")


def test_ruleset_enabled_names():
    assert RuleSet().enabled() == (
        "PAIRING",
        "ENV_LOCALITY",
        "SYS_LOCALITY",
        "STATE_FUNCTION",
        "NORMALIZATION",
    )
    assert "PAIRING" not in RuleSet().without("PAIRING").enabled()


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_terms(bell_state(), [(1, 1)]),
        lambda: generate_terms(bell_state(), [(1, 2, 3)]),
        lambda: generate_terms(bell_state(), [(1,)]),
        lambda: generate_terms(bell_state(), [1]),
        lambda: RuleSet().without("nope"),
        lambda: ProbTerm("X", 1, StateExpr()),
    ],
    ids=[
        "swap-with-itself", "swap-triple", "swap-single", "swap-not-a-pair",
        "unknown-rule", "unknown-subsystem",
    ],
)
def test_input_errors_stay_in_the_hierarchy(make):
    with pytest.raises(EnvarkitError):
        make()
