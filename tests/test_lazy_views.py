"""The lazy views' indexing contract: terms of a term set or store, and a store's trace.

Each view builds an item on its first read and keeps it.  Slices must build
the items they cover, indexes outside the view raise ``IndexError`` as a list
does, and a non-integer index raises ``TypeError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from envarkit import ProbTerm, RuleSet, StateExpr, SystemSwap, generate_terms, make_state, saturate

SLICES = [slice(None), slice(2, 9), slice(None, None, -3), slice(-5, None), slice(7, 2, -2), slice(40, 90)]


def _term_set():
    return generate_terms(make_state(np.eye(3, dtype=complex) / np.sqrt(3)), [(1, 2), (2, 3)])


def _set_terms():
    return _term_set().terms


def _store_terms_after_add():
    store = saturate(_term_set(), RuleSet())
    store.add(ProbTerm("S", 1, StateExpr().then(SystemSwap(1, 3))))
    return store._terms


def _trace_after_merge():
    store = saturate(_term_set(), RuleSet().without("STATE_FUNCTION"))
    extra = ProbTerm("E", 2, StateExpr().then(SystemSwap(1, 3)))
    store.add(extra)
    size = len(store.trace)
    assert store.merge("custom", extra, ProbTerm("S", 1, StateExpr()))
    assert len(store.trace) == size + 1
    return store.trace


VIEWS = {
    "term-set-terms": _set_terms,
    "store-terms-after-add": _store_terms_after_add,
    "trace-after-merge": _trace_after_merge,
}


@pytest.fixture(params=sorted(VIEWS))
def make_view(request):
    return VIEWS[request.param]


@pytest.mark.parametrize("cut", SLICES, ids=str)
def test_a_slice_equals_the_elementwise_reads(make_view, cut):
    view = make_view()
    sliced = view[cut]
    assert None not in sliced
    assert sliced == [view[i] for i in range(*cut.indices(len(view)))]


def test_an_item_read_through_a_slice_is_the_one_read_by_index(make_view):
    view = make_view()
    sliced = view[::2]
    assert sliced and all(item is view[2 * n] for n, item in enumerate(sliced))
    assert view[-1] is view[len(view) - 1] is view[len(view) - 1 :][0]


def test_indexes_outside_the_view_raise_index_error(make_view):
    view = make_view()
    for n in (len(view), -len(view) - 1):
        with pytest.raises(IndexError):
            view[n]
    assert view[-len(view)] is view[0]


def test_a_float_index_raises_type_error(make_view):
    view = make_view()
    with pytest.raises(TypeError):
        view[1.0]
