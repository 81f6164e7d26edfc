"""The CLI's JSON writer and the ``derive`` report read off the store's ids.

``cli._render`` must give ``json.dumps(report, indent=2,
ensure_ascii=False)`` and a newline, byte for byte, on any JSON-shaped
value; the ``derive`` report's classes and trace must be those of the
public ``classes()`` and ``trace``, named by ``str``, in both union-find
forms and in the text format.
"""

from __future__ import annotations

import gc
import json
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarkit import (
    EnvarkitError,
    EqualityStore,
    ProbTerm,
    RuleSet,
    StateExpr,
    TermSet,
    derivation,
    generate_terms,
    load_state,
    make_state,
    saturate,
    save_state,
    schmidt,
)
from envarkit.cli import _derivation_report, _render, main
from envarkit.derivation import RULE_NAMES
from helpers import block_swap_pairs


def dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


class Text(str):
    pass


class Real(float):
    pass


class Small(IntEnum):
    ONE = 1


TRICKY = ["", "%", "%s", "%%s", "a%(b)s", "é·ü", "\x00\x1f\x7f", '"\\/', " ퟿", "\n\t"]
STRINGS = st.text(max_size=8) | st.sampled_from(TRICKY)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, float("nan"), float("inf"), -float("inf")])
    | STRINGS
    | STRINGS.map(Text)
    | st.floats().map(Real)
    | st.floats().map(np.float64)
    | st.just(Small.ONE)
)
KEYS = STRINGS | st.none() | st.booleans() | st.integers(-5, 5) | st.floats()


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(KEYS, children, max_size=5)
        # siblings of one shape: equal-length lists and dicts of one key sequence
        | st.integers(0, 3).flatmap(lambda n: st.lists(st.lists(children, min_size=n, max_size=n), max_size=5))
        | st.lists(STRINGS, max_size=3).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=5)
        )
    )


TREES = st.recursive(SCALARS, _containers, max_leaves=30)


@given(value=TREES)
@settings(max_examples=400, deadline=None)
def test_the_writer_is_json_dumps_with_indent(value):
    assert _render(value, "json") == dumps(value)


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}], [[], []], [{}, {}], {"a": {}}, 1, "x", None, True, float("nan"),
    [[1, 2], [3], [], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1.5, "a"], [None, [2]]],
    {"%s": ["%", "%%"], 1: "a", "1": "b", None: 0, 1.5: [], True: {}, float("nan"): [{}]},
    [{"a%": [1, 2]}, {"a%": [3, 4]}, {"b": 5}], [[["x"] * 3] * 2] * 2,
])
def test_the_writer_is_json_dumps_with_indent_at_its_edges(value):
    assert _render(value, "json") == dumps(value)


@pytest.mark.parametrize("value", [[object()], {"a": {1j: 2}}, {(1, 2): 3}, [np.int64(1)]])
def test_the_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _render(value, "json")


def reference(store: EqualityStore) -> tuple[list, list]:
    """The classes and trace of the report, built through the public API."""
    classes = [[str(term) for term in cls] for cls in store.classes()]
    trace = [{"rule": rec.rule, "merged": [str(rec.left), str(rec.right)]} for rec in store.trace]
    return classes, trace


GOLDEN = Path(__file__).parent / "golden" / "states"
RULE_SETS = [RuleSet(), *(RuleSet().without(name) for name in RULE_NAMES)]


def _schedules(state):
    """Every same-block swap with the first two repeated, and the default adjacent
    swaps when ``generate_terms`` takes them."""
    dec = schmidt(state)
    pairs = block_swap_pairs(dec)
    schedules = [pairs + pairs[:2]]
    if len(pairs) == dec.rank * (dec.rank - 1):  # one block: adjacent swaps are taken
        schedules.append([(k, k + 1) for k in range(1, dec.rank)])
    for swaps in schedules:
        generate_terms(state, swaps, dec)
    return dec, schedules


def _derivable():
    """Each golden state ``derive`` runs on, and an even state of 552 terms, past
    ``_ARRAY_TERMS``, with its decomposition and swap schedules."""
    states = {path.stem: path for path in sorted(GOLDEN.glob("*.json"))}
    out = {}
    for name, state in {**states, "even12": make_state(np.eye(12) / np.sqrt(12))}.items():
        try:
            state = load_state(state) if isinstance(state, Path) else state
            out[name] = (state, *_schedules(state))
        except EnvarkitError:  # a malformed file, or a Schmidt form generate_terms refuses
            continue
    return out


STATES = _derivable()


@pytest.mark.parametrize("threshold", [0, 10**9], ids=["array-form", "list-form"])
@pytest.mark.parametrize("name", sorted(STATES))
def test_the_derive_report_is_the_public_classes_and_trace(name, threshold, monkeypatch):
    monkeypatch.setattr(derivation, "_ARRAY_TERMS", threshold)
    state, dec, schedules = STATES[name]
    for swaps in schedules:
        term_set = generate_terms(state, swaps, dec)
        for rules in RULE_SETS:
            report = _derivation_report(term_set, rules)
            assert (report["classes"], report["trace"]) == reference(saturate(term_set, rules))
    assert isinstance(saturate(term_set, RuleSet())._parent, list) is bool(threshold)


def test_a_hand_built_store_is_named_by_its_terms(monkeypatch):
    state = STATES["even4"][0]
    generated = generate_terms(state, [(1, 2), (2, 3)])
    terms = list(generated.terms)[::-1]  # a term set whose terms are not the structural sequence
    term_set = TermSet(terms, generated.exprs, generated.branches, state, generated.decomposition)
    extra = ProbTerm("S", 1, StateExpr(base="phi"))
    for threshold in (0, 10**9):
        monkeypatch.setattr(derivation, "_ARRAY_TERMS", threshold)
        store = saturate(term_set, RuleSet())
        store.add(extra)
        store.merge("custom", terms[0], extra)
        classes, trace = store._by_name()
        assert (classes, [{"rule": r, "merged": [a, b]} for r, a, b in trace]) == reference(store)
        assert classes == reference(EqualityStore.from_trace(terms + [extra], store.trace))[0]


def test_the_text_format_renders_the_same_report(tmp_path, capsys):
    path = tmp_path / "even3.json"
    save_state(STATES["even3-rotated"][0], path)
    assert main(["--format", "text", "derive", str(path), "--swaps", "1,2;2,3;1,2", "--ablate"]) == 0
    out = capsys.readouterr().out
    store = saturate(generate_terms(STATES["even3-rotated"][0], [(1, 2), (2, 3), (1, 2)]), RuleSet())
    classes, trace = reference(store)
    lines = out.splitlines()
    assert lines[0] == f"classes: {json.dumps(classes, ensure_ascii=False)}"
    assert lines[1] == f"trace: {json.dumps(trace, ensure_ascii=False)}"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_cycle_collector_as_it_found_it(enabled, tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(STATES["bell"][0], path)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["derive", str(path)]) == 0 and main(["derive", str(path), "--swaps", "1,3"]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
