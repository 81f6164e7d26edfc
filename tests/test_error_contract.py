"""The library's error contract as a property: one ``except EnvarkitError`` catches everything.

``ENTRIES`` is a table of public callables, each with valid arguments and
the positions of its value parameters.  Hypothesis puts a drawn value at
one position and runs the call with warnings turned into errors: it must
return or raise an ``EnvarkitError``.  The values are the malformed ones
(None, a string, a float where an int belongs, an empty list, NaN, a
negative, a huge int, a bare object, a 2x2 array, a one-tuple), valid edge
values, and small ints and floats.

The positions are value parameters only.  What ``errors`` declares out of
contract is not drawn: an object of the wrong type where a state,
decomposition, unitary, weights, term, expr, tag, term set, store or frame
is expected, and a flag such as ``normalize`` that is not a bool.
"""

from __future__ import annotations

import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarkit import (
    BasisSample,
    BipartiteState,
    EnvarkitError,
    LocalUnitary,
    PowerOverlapFrame,
    ProbTerm,
    QuadraticFrame,
    RationalWeights,
    RuleSet,
    SchmidtDecomposition,
    StateExpr,
    audit,
    check_envariance,
    decomposition_from_json,
    degeneracy_blocks,
    equal_branch_derivation,
    equal_up_to_global_phase,
    fine_grain,
    generate_terms,
    is_even,
    make_state,
    phase_transform,
    random_basis,
    rationalize,
    schmidt,
    state_from_json,
    swap_transform,
)

R = 2**-0.5
EYE2 = np.eye(2, dtype=complex)
EYE3 = np.eye(3, dtype=complex)
BELL = make_state(EYE2 * R)
DEC = schmidt(BELL)
SWAP = swap_transform(1, 2, DEC.system_vectors)
FRAME = QuadraticFrame(EYE3 / 3)
HALVES = RationalWeights((1, 1), 2)
BELL_JSON = '{"dim_s": 2, "dim_e": 2, "amps": [[[0.7071067811865476, 0], [0, 0]], [[0, 0], [0.7071067811865476, 0]]]}'

# name: (callable, valid positional arguments, valid keyword arguments, value positions)
ENTRIES = {
    "make_state": (make_state, (EYE2 * R,), {}, (0,)),
    "BipartiteState": (BipartiteState, (EYE2 * R,), {}, (0,)),
    "LocalUnitary": (LocalUnitary, (EYE2,), {}, (0,)),
    "LocalUnitary.identity": (LocalUnitary.identity, (2,), {}, (0,)),
    "equal_up_to_global_phase": (equal_up_to_global_phase, (BELL, BELL, 1e-9), {}, (2,)),
    "state_from_json": (state_from_json, (BELL_JSON,), {}, (0,)),
    "SchmidtDecomposition": (SchmidtDecomposition, (np.array([R, R]), EYE2, EYE2), {}, (0, 1, 2)),
    "decomposition_from_json": (decomposition_from_json, ('{"lambda": [1], "s_vecs": [[[1, 0]]], "e_vecs": [[[1, 0]]]}',), {}, (0,)),
    "degeneracy_blocks": (degeneracy_blocks, (DEC, 1e-9), {}, (1,)),
    "is_even": (is_even, (DEC, 1e-9), {}, (1,)),
    "phase_transform": (phase_transform, ((1,), (0.1,), EYE2), {}, (0, 1, 2)),
    "swap_transform": (swap_transform, (1, 2, EYE2), {}, (0, 1, 2)),
    "check_envariance": (check_envariance, (BELL, SWAP), {"tol": 1e-9}, ("tol",)),
    "ProbTerm": (ProbTerm, ("S", 1, StateExpr()), {}, (0,)),
    "generate_terms": (generate_terms, (BELL, [(1, 2)]), {}, (1,)),
    "RuleSet.without": (RuleSet().without, ("pairing",), {}, (0,)),
    "RationalWeights": (RationalWeights, ((1, 1), 2), {}, (0, 1)),
    "RationalWeights.from_fractions": (RationalWeights.from_fractions, ([Fraction(1, 2), Fraction(1, 2)],), {}, (0,)),
    "rationalize": (rationalize, ([0.5, 0.5], 1e-9, 1000), {}, (0, 1, 2)),
    "fine_grain": (fine_grain, (HALVES, 2), {}, (1,)),
    "equal_branch_derivation": (equal_branch_derivation, (2,), {}, (0,)),
    "BasisSample": (BasisSample, (EYE3, 0), {}, (0,)),
    "random_basis": (random_basis, (3, 0), {}, (0, 1)),
    "QuadraticFrame": (QuadraticFrame, (EYE3 / 3,), {}, (0,)),
    "PowerOverlapFrame": (PowerOverlapFrame, (np.array([1.0, 0.0]), 2.0), {}, (0, 1)),
    "audit": (audit, (FRAME, 3, 2, 0, 1e-9), {}, (1, 2, 3, 4)),
}
CALLS = sorted((name, position) for name, (*_, positions) in ENTRIES.items() for position in positions)

MALFORMED = (None, "x", 1.5, [], float("nan"), -1, 10**5000, object(), np.eye(2), (1,))
EDGES = (
    0, 1, 2, 3, True, -0.0, float("inf"), -float("inf"), 1e-300, 1e300, -(10**5000),
    np.float64(0.5), np.int64(2), np.array(1.0), Fraction(1, 2), Decimal("0.5"), 1j,
    "", b"ab", bytearray(b"\x01"), "0.5", (), (1, 2), (1, 1), [(1, 2)], [0.5, "0.5"],
    [[1e300, 0]], [[10**5000, 0]], [[np.nan, 0]], [[1, 0], [1]], np.zeros((2, 0)),
    np.full((2, 2), 0.5), np.array([1e300, 0.0]), np.array([1.0, 0.0, 0.0]), EYE2 * R, EYE3 / 3,
)
VALUES = st.sampled_from(MALFORMED + EDGES) | st.integers(-3, 4) | st.floats(allow_nan=True)


def call_with(name: str, position, value):
    fn, args, kwargs, _ = ENTRIES[name]
    args, kwargs = list(args), dict(kwargs)
    if isinstance(position, str):
        kwargs[position] = value
    else:
        args[position] = value
    return fn(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_entry_point_runs_on_its_valid_arguments(name):
    fn, args, kwargs, _ = ENTRIES[name]
    fn(*args, **kwargs)


@pytest.mark.parametrize("name,position", CALLS)
@given(value=VALUES)
@settings(max_examples=40, deadline=None)
def test_a_call_succeeds_or_raises_an_envarkit_error(name, position, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call_with(name, position, value)
        except EnvarkitError:
            pass
