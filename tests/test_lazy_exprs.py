"""A cold derivation holds ints: lazy exprs, per-batch merge records, one check per array.

* ``generate_terms`` lists its exprs as a lazy sequence built from the
  skeleton; it must equal, item for item, the exprs the eager construction
  lists, and read as the tuple it replaces.
* The store records one rule entry per batch, not one per merge; every
  reader of the trace must see the same ``MergeRecord``s in both union-find
  forms.
* A cold ``equal_branch_derivation`` builds no expr beyond the base, and
  ``make_state`` and ``SchmidtDecomposition`` convert and check each array
  once.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envarkit import (
    EnvSwap,
    EqualityStore,
    MergeRecord,
    NonOrthonormalBasis,
    ParseError,
    ProbTerm,
    RuleSet,
    SchmidtDecomposition,
    StateExpr,
    SystemSwap,
    derivation,
    equal_branch_derivation,
    generate_terms,
    make_state,
    numeric_probabilities,
    saturate,
)
from envarkit.derivation import RULE_NAMES
from envarkit.finegrain import _even_decomposition
from helpers import spectrum_state
from test_cold_derivation import swap_schedules

# the package's ``schmidt`` is the function, so the modules are looked up by name
schmidt_module = importlib.import_module("envarkit.schmidt")
states_module = importlib.import_module("envarkit.states")


def even_state(m: int):
    return make_state(np.eye(m, dtype=complex) / np.sqrt(m))


def eager_exprs(swaps) -> tuple[StateExpr, ...]:
    """The exprs ``generate_terms`` lists, built eagerly, each distinct stop once."""
    exprs = [StateExpr()]
    for i, j in dict.fromkeys(tuple(swap) for swap in swaps):
        swapped = StateExpr((SystemSwap(i, j),))
        exprs += [swapped, swapped.then(EnvSwap(i, j))]
    return tuple(exprs)


# ---------------------------------------------------------------------------
# Lazy exprs against the eager construction
# ---------------------------------------------------------------------------

@given(swap_schedules(), st.randoms(use_true_random=False))
@example((3, True, [(1, 2), (2, 1), (1, 2), (2, 3)]), None)
@example((2, True, []), None)
@settings(max_examples=60, deadline=None)
def test_lazy_exprs_equal_the_eager_ones_item_for_item(schedule, rng):
    rank, one_block, swaps = schedule
    lams = [1.0] * rank if one_block else [1.0] * (rank // 2) + [0.5] * (rank - rank // 2)
    state = spectrum_state(lams, seed_s=rank, seed_e=rank + 1)
    exprs = generate_terms(state, swaps).exprs
    eager = eager_exprs(swaps)
    order = list(range(len(eager)))
    if rng is not None:
        rng.shuffle(order)  # a child may be read before its parent
    for n in order:
        built = exprs[n]
        assert built == eager[n] and hash(built) == hash(eager[n]) and str(built) == str(eager[n])
        assert [type(t) for t in built.transforms] == [type(t) for t in eager[n].transforms]
        assert exprs[n] is built  # kept once built
    assert len(exprs) == len(eager) and tuple(exprs) == eager


def test_generated_exprs_read_as_a_tuple():
    swaps = [(1, 2), (2, 3), (2, 1)]
    exprs = generate_terms(even_state(3), swaps).exprs
    eager = eager_exprs(swaps)
    assert len(exprs) == len(eager) == 7
    assert exprs[-1] == eager[-1] and exprs[-len(eager)] == eager[0]
    for cut in (slice(None), slice(1, None, 2), slice(None, None, -2), slice(2, 5), slice(9, 20)):
        sliced = exprs[cut]
        assert type(sliced) is tuple and sliced == eager[cut]
    extra = StateExpr().then(SystemSwap(1, 3))
    joined = exprs + (extra,)
    assert type(joined) is tuple and joined == eager + (extra,)
    assert eager[4] in exprs and extra not in exprs
    assert exprs == eager and eager == exprs and exprs != eager[:-1]
    assert exprs == generate_terms(even_state(3), swaps).exprs
    assert exprs != generate_terms(even_state(3), swaps[:1]).exprs
    with pytest.raises(IndexError):
        exprs[len(eager)]
    with pytest.raises(TypeError):
        exprs[1.0]


# ---------------------------------------------------------------------------
# Nothing a cold derivation does not read is built
# ---------------------------------------------------------------------------

@pytest.fixture
def built_exprs(monkeypatch):
    """Every ``StateExpr`` built while the test runs."""
    built = []
    init = StateExpr.__init__

    def counted(expr, *args, **kwargs):
        init(expr, *args, **kwargs)
        built.append(expr)

    monkeypatch.setattr(StateExpr, "__init__", counted)
    return built


@pytest.mark.parametrize("m", [1, 2, 8, 13, 32])
def test_a_cold_equal_branch_derivation_builds_no_expr_beyond_the_base(built_exprs, m):
    term_set, store, shares = equal_branch_derivation.__wrapped__(m)
    assert len(store.trace) == len(term_set) - 1 and len(shares) == m
    assert built_exprs and all(expr.transforms == () for expr in built_exprs)


def test_edges_and_numeric_probabilities_read_no_expr_and_no_term(built_exprs, monkeypatch):
    m = 16
    term_set = generate_terms(even_state(m), [(k, k + 1) for k in range(1, m)], _even_decomposition(m))
    term_set._edges
    assert built_exprs == []

    def no_lookup(store, term):
        raise AssertionError(f"looked {term} up by term")

    store = saturate(term_set, RuleSet())
    monkeypatch.setattr(EqualityStore, "_id", no_lookup)
    probs = numeric_probabilities(store, term_set.base_state, RuleSet(), term_set.decomposition)
    assert len(probs) == m
    assert all(expr.transforms == () for expr in built_exprs)
    assert len(term_set.exprs._built) == 1  # the base row only


# ---------------------------------------------------------------------------
# One merge record entry per batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("array", [False, True])
def test_trace_minimal_trace_and_from_trace_read_per_batch_rules(array, monkeypatch):
    monkeypatch.setattr(derivation, "_ARRAY_TERMS", 0 if array else 10**6)
    m = 5
    term_set = generate_terms(even_state(m), [(k, k + 1) for k in range(1, m)])
    store = EqualityStore(term_set.terms)
    assert isinstance(store._parent, np.ndarray) is array
    counts = []
    for rule, (lefts, rights) in term_set._edges.items():
        counts.append((rule, store._unite(rule, lefts, rights)))
    extra = ProbTerm("S", 1, StateExpr().then(SystemSwap(1, 3)))
    store.add(extra)
    assert store.merge("custom", term_set.terms[-1], extra)
    assert not store.merge("custom", extra, term_set.terms[-1])
    counts.append(("custom", 1))
    # one entry per batch that kept a merge, each naming the merges made by its end
    ends = np.cumsum([n for _, n in counts])
    assert store.trace._rules == [rule for rule, n in counts if n]
    assert store.trace._ends == [end for (_, n), end in zip(counts, ends) if n]
    trace = list(store.trace)
    assert [record.rule for record in trace] == [rule for rule, n in counts for _ in range(n)]
    assert trace == [
        MergeRecord(rule, store._terms[a], store._terms[b])
        for rule, a, b in zip((r.rule for r in trace), store._lefts, store._rights)
    ]
    assert list(store.trace) == trace and all(a is b for a, b in zip(store.trace, trace))
    chain = store.minimal_trace(extra, term_set.terms[0])
    assert chain and all(any(link is record for record in trace) for link in chain)
    assert chain[0] == MergeRecord("custom", term_set.terms[-1], extra)
    rebuilt = EqualityStore.from_trace(list(term_set.terms) + [extra], store.trace)
    assert isinstance(rebuilt._parent, np.ndarray) is array
    assert list(rebuilt.trace) == trace and rebuilt.classes() == store.classes()
    assert rebuilt.trace._rules == [rule for rule, n in counts if n]


def test_both_forms_record_the_same_merges_under_every_rule_set(monkeypatch):
    m = 6
    term_set = generate_terms(even_state(m), [(k, k + 1) for k in range(1, m)])
    for rules in [RuleSet()] + [RuleSet().without(name) for name in RULE_NAMES]:
        records = []
        for threshold in (0, 10**6):
            monkeypatch.setattr(derivation, "_ARRAY_TERMS", threshold)
            store = saturate(term_set, rules)
            records.append((list(store.trace), store.trace._rules, store.trace._ends))
        assert records[0] == records[1]


# ---------------------------------------------------------------------------
# One conversion and one check per array
# ---------------------------------------------------------------------------

def test_make_state_converts_and_checks_its_array_once(monkeypatch):
    calls = []
    convert = states_module._as_complex_array

    def counted(*args):
        calls.append(args[1:])
        return convert(*args)

    monkeypatch.setattr(states_module, "_as_complex_array", counted)
    for normalize in (False, True):
        calls.clear()
        state = make_state(np.eye(2) * 2**-0.5, normalize=normalize)
        assert calls == [(2, "coefficients")]
        assert not state.amps.flags.writeable and state.amps.dtype == complex
        assert np.array_equal(state.amps, np.eye(2) * 2**-0.5)


def test_an_underflowing_norm_is_refused_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="underflows"):
            make_state([[1e-320, 0]], normalize=True)
        assert make_state([[1e-150, 0]], normalize=True).amps[0, 0] == 1


def test_a_vector_block_given_as_both_sides_is_converted_and_checked_once(monkeypatch):
    checked = []
    check = schmidt_module._check_orthonormal

    def counted(block, tol, what, *rest):
        checked.append(what)
        return check(block, tol, what, *rest)

    monkeypatch.setattr(schmidt_module, "_check_orthonormal", counted)
    m = 5
    shared = _even_decomposition(m)
    assert checked == ["system_vectors"]
    assert shared.system_vectors is shared.env_vectors
    assert not shared.env_vectors.flags.writeable
    apart = SchmidtDecomposition(shared.coefficients, np.eye(m), np.eye(m))
    assert checked == ["system_vectors", "system_vectors", "env_vectors"]
    for name in ("coefficients", "system_vectors", "env_vectors"):
        assert np.array_equal(getattr(shared, name), getattr(apart, name))
    bad = np.ones((2, 2))
    with pytest.raises(NonOrthonormalBasis, match="system_vectors"):
        SchmidtDecomposition([2**-0.5] * 2, bad, bad)
