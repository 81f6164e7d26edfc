"""One notion of "equal coefficients" for ``derive`` and ``envariance``.

``generate_terms`` accepts a swap only inside one ``degeneracy_blocks``
block, the blocks ``check_envariance`` tests against.  The spectra here
straddle ``DEGENERACY_TOL``: their adjacent gaps are drawn around it, so
gaps within the tolerance can chain past it.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from envarkit import (
    DEGENERACY_TOL,
    ENVAR_TOL,
    ProbTerm,
    RuleSet,
    StateExpr,
    UnevenCoefficients,
    check_envariance,
    degeneracy_blocks,
    generate_terms,
    is_even,
    load_state,
    make_state,
    oracle_best_counter,
    saturate,
    save_state,
    schmidt,
    swap_transform,
)
from envarkit.cli import main
from helpers import spectrum_state

STEPS = [0.0, 0.3, 0.45, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]  # gaps in units of DEGENERACY_TOL


@st.composite
def straddling_states(draw):
    """States whose adjacent Schmidt gaps lie near ``DEGENERACY_TOL``, diagonal or Haar-rotated."""
    rank = draw(st.integers(2, 6))
    steps = draw(st.lists(st.sampled_from(STEPS) | st.floats(0.0, 2.5), min_size=rank - 1, max_size=rank - 1))
    # about unit norm already, so normalizing keeps each gap near its drawn size
    lams = rank**-0.5 - DEGENERACY_TOL * np.cumsum([0.0, *steps])
    if draw(st.booleans()):
        return make_state(np.diag(lams).astype(complex), normalize=True)
    seed = draw(st.integers(0, 2**16))
    return spectrum_state(lams, seed_s=seed, seed_e=seed + 1)


STAIRCASE = make_state(np.diag(1 - 0.9e-9 * np.arange(8)).astype(complex), normalize=True)


@given(straddling_states())
@example(STAIRCASE)
@settings(max_examples=60, deadline=None)
def test_every_swap_envariance_accepts_generate_terms_accepts(state):
    dec = schmidt(state)
    block_of = {k: n for n, block in enumerate(degeneracy_blocks(dec)) for k in block}
    for i in range(1, dec.rank + 1):
        for j in range(i + 1, dec.rank + 1):
            verdict = check_envariance(state, swap_transform(i, j, dec.system_vectors), decomposition=dec)
            if block_of[i] == block_of[j]:
                generate_terms(state, [(i, j)], dec)
            else:
                assert not verdict.envariant
                with pytest.raises(UnevenCoefficients):
                    generate_terms(state, [(i, j)], dec)


@given(straddling_states())
@example(STAIRCASE)
@settings(max_examples=60, deadline=None)
def test_one_swap_joins_its_branches_exactly_when_envariance_accepts_it(state):
    # inside one block the engine's STATE_FUNCTION test and the envariance
    # residual test decide the same swap, each against its own 1e-9
    dec = schmidt(state)
    for block in degeneracy_blocks(dec):
        for i, j in combinations(block, 2):
            verdict = check_envariance(state, swap_transform(i, j, dec.system_vectors), decomposition=dec)
            assume(abs(verdict.residual - ENVAR_TOL) > 1e-12)  # the two tests may round apart there
            store = saturate(generate_terms(state, [(i, j)], dec), RuleSet())
            joined = store.same_class(ProbTerm("S", i, StateExpr()), ProbTerm("S", j, StateExpr()))
            assert joined == verdict.envariant, (i, j, verdict.residual)


@given(straddling_states())
@example(STAIRCASE)
@settings(max_examples=60, deadline=None)
def test_every_swap_verdict_reports_a_residual_the_oracle_bounds(state):
    # without a counter the verdict reports the oracle's residual; with one, the
    # restored residual, which the oracle (optimal over every environment
    # unitary) can only undercut, and which may exceed tol inside one block
    dec = schmidt(state)
    for i, j in combinations(range(1, dec.rank + 1), 2):
        u_s = swap_transform(i, j, dec.system_vectors)
        verdict = check_envariance(state, u_s, decomposition=dec)
        _, best = oracle_best_counter(state, u_s)
        if verdict.counter is None:
            assert verdict.residual == best, (i, j)
        else:
            assert best <= verdict.residual + 1e-12, (i, j, best, verdict.residual)


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("spectra") / "state.json"


@given(state=straddling_states(), schedule=st.sampled_from(["adjacent", "1,2", "1,2;2,3", "2,1;1,2"]))
@example(state=STAIRCASE, schedule="adjacent")
@settings(max_examples=60, deadline=None)
def test_derive_emits_numbers_only_for_an_even_spectrum(state_path, state, schedule):
    save_state(state, state_path)
    argv = ["derive", str(state_path)] + ([] if schedule == "adjacent" else ["--swaps", schedule])
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    if code == 2:
        assert stderr.getvalue().partition(":")[0] in ("UnevenCoefficients", "IndexOutOfRange")
        return
    emitted = json.loads(stdout.getvalue())["probabilities"] is not None
    assert code == (0 if emitted else 1)
    if emitted:
        assert is_even(schmidt(load_state(state_path)))
