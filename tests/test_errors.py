"""Every validation fault is an ``EnvarkitError``: one ``except`` catches them all."""

from __future__ import annotations

import numpy as np
import pytest

from envarkit import (
    BasisSample,
    BipartiteState,
    DimensionMismatch,
    EnvarkitError,
    EqualityStore,
    IndexOutOfRange,
    LocalUnitary,
    NonOrthonormalBasis,
    NotNormalized,
    ParseError,
    PowerOverlapFrame,
    ProbTerm,
    QuadraticFrame,
    RationalWeights,
    RuleSet,
    SchmidtDecomposition,
    StateExpr,
    SystemPhase,
    SystemSwap,
    TermSet,
    UnknownTerm,
    WeightMismatch,
    audit,
    born_value,
    generate_terms,
    make_state,
    phase_transform,
    random_basis,
    rationalize,
    replay,
    saturate,
    schmidt,
    swap_transform,
)

R = 2**-0.5
EYE2 = np.eye(2, dtype=complex)
EYE3 = np.eye(3, dtype=complex)
FRAME = QuadraticFrame(EYE3 / 3)
RAGGED = [[1, 0], [1]]  # numpy refuses it with a bare ValueError


def decomposition(lam, svecs=EYE2):
    return lambda: SchmidtDecomposition(np.array(lam), svecs, EYE2)


HUGE_SWAP_TERM = ProbTerm("S", 1, StateExpr((SystemSwap(10**5000, 1),)))
HUGE_PHASE_TERM = ProbTerm("E", 2, StateExpr((SystemSwap(1, 2), SystemPhase((1, 10**5000), (0.5, 0.1)))))

CASES = {
    "decomposition-shape": (DimensionMismatch, decomposition([[1.0]])),
    "decomposition-columns": (DimensionMismatch, decomposition([1.0])),
    "decomposition-order": (ParseError, decomposition([0.6, 0.8])),
    "decomposition-cutoff": (ParseError, decomposition([1.0, 0.0])),
    "decomposition-norm": (NotNormalized, decomposition([0.9, 0.1])),
    "decomposition-basis": (NonOrthonormalBasis, decomposition([R, R], np.ones((2, 2)))),
    "decomposition-nan-lambda": (ParseError, decomposition([np.nan, np.nan])),
    "decomposition-nan-vectors": (NonOrthonormalBasis, decomposition([R, R], EYE2 * np.nan)),
    "basis-shape": (DimensionMismatch, lambda: BasisSample(np.eye(3, 2), 0)),
    "basis-nan": (NonOrthonormalBasis, lambda: BasisSample(np.full((3, 3), np.nan), 0)),
    "random-basis-dim": (DimensionMismatch, lambda: random_basis(1, 0)),
    "quadratic-shape": (DimensionMismatch, lambda: QuadraticFrame(np.eye(3, 2) / 2)),
    "quadratic-hermitian": (ParseError, lambda: QuadraticFrame(np.array([[0.5, 1.0], [0.0, 0.5]]))),
    "quadratic-trace": (NotNormalized, lambda: QuadraticFrame(EYE3)),
    "quadratic-psd": (ParseError, lambda: QuadraticFrame(np.diag([1.5, -0.5, 0.0]))),
    "quadratic-nan": (ParseError, lambda: QuadraticFrame(np.full((3, 3), np.nan))),
    "power-shape": (DimensionMismatch, lambda: PowerOverlapFrame(EYE2, 2.0)),
    "power-norm": (NotNormalized, lambda: PowerOverlapFrame(np.array([2.0, 0.0]), 2.0)),
    "power-nan-w": (ParseError, lambda: PowerOverlapFrame(np.array([np.nan, 0.0]), 2.0)),
    "power-nan-alpha": (ParseError, lambda: PowerOverlapFrame(np.array([1.0, 0.0]), np.nan)),
    "audit-dim": (DimensionMismatch, lambda: audit(QuadraticFrame(EYE2 / 2), 2, 1)),
    "audit-trials": (ParseError, lambda: audit(FRAME, 3, 0)),
    "negative-seed-audit": (ParseError, lambda: audit(FRAME, 3, 2, -1)),
    "negative-seed-basis": (ParseError, lambda: random_basis(3, -1)),
    "phase-lengths": (DimensionMismatch, lambda: phase_transform((1, 2), (0.1,), EYE2)),
    "phase-repeats": (IndexOutOfRange, lambda: phase_transform((1, 1), (0.1, 0.2), EYE2)),
    "phase-empty-basis": (NonOrthonormalBasis, lambda: phase_transform((1,), (0.1,), np.zeros((2, 0)))),
    "swap-same": (IndexOutOfRange, lambda: swap_transform(1, 1, EYE2)),
    "swap-empty-basis": (NonOrthonormalBasis, lambda: swap_transform(1, 2, np.zeros((2, 0)))),
    "state-finite": (ParseError, lambda: make_state([[np.nan, 0.0], [0.0, 1.0]])),
    "amps-finite": (ParseError, lambda: BipartiteState(np.array([[np.inf, 0.0], [0.0, 1.0]]))),
    "state-ragged": (ParseError, lambda: make_state(RAGGED)),
    "state-string": (ParseError, lambda: make_state("ab")),
    "amps-ragged": (ParseError, lambda: BipartiteState(RAGGED)),
    "unitary-ragged": (ParseError, lambda: LocalUnitary(RAGGED)),
    "quadratic-ragged": (ParseError, lambda: QuadraticFrame(RAGGED)),
    "power-ragged": (ParseError, lambda: PowerOverlapFrame(RAGGED, 2.0)),
    "decomposition-ragged": (ParseError, lambda: SchmidtDecomposition([R, R], RAGGED, EYE2)),
    "basis-ragged": (ParseError, lambda: BasisSample(RAGGED, 0)),
    "swap-ragged-basis": (ParseError, lambda: swap_transform(1, 2, RAGGED)),
    "swap-huge-index": (IndexOutOfRange, lambda: swap_transform(10**5000, 1, EYE2)),
    "generate-terms-huge-index": (IndexOutOfRange, lambda: generate_terms(BELL, [(10**5000, 1)])),
    "term-huge-subsystem": (ParseError, lambda: ProbTerm(10**5000, 1, StateExpr())),
    "random-basis-float-dim": (DimensionMismatch, lambda: random_basis(2.5, 0)),
    "power-string-alpha": (ParseError, lambda: PowerOverlapFrame(np.array([1.0, 0.0]), "ab")),
    "phase-string-beta": (ParseError, lambda: phase_transform((1,), ("x",), EYE2)),
    "phase-huge-beta": (ParseError, lambda: phase_transform((1,), (10**5000,), EYE2)),
    "phase-complex-beta": (ParseError, lambda: phase_transform((1,), (1j,), EYE2)),
    "power-huge-alpha": (ParseError, lambda: PowerOverlapFrame(np.array([1.0, 0.0]), 10**5000)),
    "power-list-alpha": (ParseError, lambda: PowerOverlapFrame(np.array([1.0, 0.0]), [2.0])),
    "random-basis-string-dim": (DimensionMismatch, lambda: random_basis("3", 0)),
    "random-basis-huge-dim": (DimensionMismatch, lambda: random_basis(10**5000, 0)),
    "random-basis-dim-bound": (DimensionMismatch, lambda: random_basis(65, 0)),
    "random-basis-float-seed": (ParseError, lambda: random_basis(3, 2.5)),
    "random-basis-huge-negative-seed": (ParseError, lambda: random_basis(3, -(10**5000))),
    "audit-float-dim": (DimensionMismatch, lambda: audit(FRAME, 3.0, 16, 0)),
    "audit-huge-dim": (DimensionMismatch, lambda: audit(FRAME, 10**5000, 16, 0)),
    "audit-float-trials": (ParseError, lambda: audit(FRAME, 3, 2.5, 0)),
    "audit-none-trials": (ParseError, lambda: audit(FRAME, 3, None, 0)),
    "audit-huge-trials": (ParseError, lambda: audit(FRAME, 3, 10**5000, 0)),
    "audit-float-seed": (ParseError, lambda: audit(FRAME, 3, 16, 2.5)),
    "store-find-huge-index": (UnknownTerm, lambda: EqualityStore().find(ProbTerm("S", 10**5000, StateExpr()))),
    "state-norm-underflow": (ParseError, lambda: make_state([[1e-320, 0]], normalize=True)),
    "weights-float-numerators": (WeightMismatch, lambda: RationalWeights((3.5, 1.5), 4)),
    "weights-string-numerators": (WeightMismatch, lambda: RationalWeights(("1", "2"), "3")),
    "weights-string-denominator": (WeightMismatch, lambda: RationalWeights((1, 2), "3")),
    "weights-nan-denominator": (WeightMismatch, lambda: RationalWeights((1, 1), float("nan"))),
    "rationalize-string": (WeightMismatch, lambda: rationalize("x")),
    "rationalize-none": (WeightMismatch, lambda: rationalize(None)),
    "rationalize-huge-weight": (WeightMismatch, lambda: rationalize([10**5000])),
    "store-find-huge-swap-index": (UnknownTerm, lambda: EqualityStore().find(HUGE_SWAP_TERM)),
    "store-find-huge-phase-index": (UnknownTerm, lambda: EqualityStore().find(HUGE_PHASE_TERM)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validation_faults_are_envarkit_errors(case):
    kind, build = CASES[case]
    with pytest.raises(EnvarkitError) as info:
        build()
    assert type(info.value) is kind


BELL = make_state(EYE2 * R)
HALF_SWAP = StateExpr().then(SystemSwap(1.5, 2))
NON_INTEGER_INDEX = {
    "generate-terms": lambda: generate_terms(BELL, [(1.5, 2)]),
    "swap-transform": lambda: swap_transform(1.5, 2, EYE2),
    "phase-transform": lambda: phase_transform((1.5,), (0.1,), EYE2),
    "born-value": lambda: born_value(ProbTerm("S", 1.5, StateExpr()), BELL),
    "replay": lambda: replay(HALF_SWAP, BELL),
    "saturate": lambda: saturate(TermSet((), (StateExpr(), HALF_SWAP), (1, 2), BELL, schmidt(BELL)), RuleSet()),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_INDEX))
def test_a_branch_index_that_is_not_an_integer_is_out_of_range(case):
    with pytest.raises(IndexOutOfRange, match="1.5 is not an integer"):
        NON_INTEGER_INDEX[case]()


HUGE = {
    "swap-transform": lambda: swap_transform(10**5000, 1, EYE2),
    "generate-terms": lambda: generate_terms(BELL, [(10**5000, 1)]),
    "prob-term": lambda: ProbTerm(10**5000, 1, StateExpr()),
    "random-basis": lambda: random_basis(-(10**5000), 0),
    "random-basis-dim": lambda: random_basis(10**5000, 0),
    "random-basis-seed": lambda: random_basis(3, -(10**5000)),
    "audit-dim": lambda: audit(FRAME, 10**5000, 16, 0),
    "audit-trials": lambda: audit(FRAME, 3, 10**5000, 0),
    "store-find": lambda: EqualityStore().find(ProbTerm("S", 10**5000, StateExpr())),
    "store-find-swap": lambda: EqualityStore().find(HUGE_SWAP_TERM),
    "store-find-phase": lambda: EqualityStore().find(HUGE_PHASE_TERM),
}


@pytest.mark.parametrize("case", sorted(HUGE))
def test_a_huge_int_is_named_by_its_bit_length(case):
    with pytest.raises(EnvarkitError, match="16610-bit integer") as info:
        HUGE[case]()
    assert len(str(info.value)) < 120

