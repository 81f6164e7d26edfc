"""A saturated store is freed as soon as its last reference goes, and its trace reads on.

The trace holds the store's term view and merge record, not the store, so
neither union-find form leaves a reference cycle for the cyclic garbage
collector.  Each test runs with that collector off, so only reference
counting can free what the test drops.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from envarkit import RuleSet, generate_terms, make_state, saturate

# M = 4 stores 56 terms (the list form); M = 13 stores 650 (the array form)
FORMS = [(4, False), (13, True)]


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def even_term_set(m: int):
    state = make_state(np.eye(m, dtype=complex) / np.sqrt(m))
    return generate_terms(state, [(k, k + 1) for k in range(1, m)])


@pytest.mark.parametrize("m, array", FORMS)
def test_a_dropped_store_and_trace_leave_no_cyclic_garbage(collector_off, m, array):
    term_set = even_term_set(m)
    store = saturate(term_set, RuleSet())
    assert isinstance(store._parent, np.ndarray) is array
    trace = store.trace
    assert len(list(trace)) == len(trace) > 0
    assert len(store.classes()) == 1
    del store, trace, term_set
    assert gc.collect() == 0


@pytest.mark.parametrize("m, array", FORMS)
def test_a_trace_kept_past_its_store_builds_the_same_records(collector_off, m, array):
    term_set = even_term_set(m)
    records = list(saturate(term_set, RuleSet()).trace)
    store = saturate(term_set, RuleSet())
    assert isinstance(store._parent, np.ndarray) is array
    trace = store.trace  # no record of it is built yet
    freed = weakref.ref(store)
    del store
    assert freed() is None
    assert trace == records
