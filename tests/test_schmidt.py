"""Schmidt decomposition: coefficients, round trips, evenness, blocks."""

from __future__ import annotations

import numpy as np
import pytest

from envarkit import (
    SCHMIDT_CUTOFF,
    NonOrthonormalBasis,
    NotNormalized,
    ParseError,
    RationalWeights,
    SchmidtDecomposition,
    apply_env,
    apply_system,
    decomposition_from_json,
    decomposition_to_json,
    degeneracy_blocks,
    equal_up_to_global_phase,
    fine_grain,
    is_even,
    make_state,
    random_basis,
    reconstruct,
    reduced_density_system,
    schmidt,
)
from helpers import bell_state, random_state, random_unitary, spectrum_state, uneven_state

R = 2**-0.5


def test_bell_coefficients():
    dec = schmidt(bell_state())
    assert dec.rank == 2
    np.testing.assert_allclose(dec.coefficients, [R, R], atol=1e-12)
    assert is_even(dec)


def test_product_state_rank_one():
    dec = schmidt(make_state([[1, 0], [0, 0]]))
    assert dec.rank == 1
    np.testing.assert_allclose(dec.coefficients, [1.0])


def test_seeded_3x4_round_trip():
    state = random_state(3, 4, 123)
    rec = reconstruct(schmidt(state))
    equal, _ = equal_up_to_global_phase(rec, state, tol=1e-10)
    assert equal


def test_reconstruct_product_from_unit_vectors():
    dec = SchmidtDecomposition(
        np.array([1.0]),
        np.array([[1.0], [0.0]], dtype=complex),
        np.array([[1.0], [0.0]], dtype=complex),
    )
    np.testing.assert_allclose(reconstruct(dec).amps, [[1, 0], [0, 0]])


def test_reconstruct_inverts_bell_decomposition():
    rec = reconstruct(schmidt(bell_state()))
    np.testing.assert_allclose(rec.amps, bell_state().amps, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (4, 2), (2, 5), (6, 6), (8, 8)])
def test_round_trip_residuals(dims):
    for seed in range(5):
        state = random_state(*dims, seed)
        rec = reconstruct(schmidt(state))
        assert np.linalg.norm(rec.amps - state.amps) <= 1e-10


def test_rank_deficient_tall_state():
    # 4x2 amplitudes: rank is at most 2 and noise eigenvalues must be dropped
    dec = schmidt(random_state(4, 2, 7))
    assert dec.rank == 2


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_coefficients_match_reduced_density_eigenvalues(dim):
    for seed in range(5):
        state = random_state(dim, dim, seed)
        dec = schmidt(state)
        evals = np.sort(np.linalg.eigvalsh(reduced_density_system(state)))[::-1]
        np.testing.assert_allclose(dec.coefficients**2, evals[: dec.rank], atol=1e-9)


def test_coefficients_invariant_under_local_unitaries():
    state = random_state(4, 4, 17)
    base = schmidt(state).coefficients
    for seed in range(5):
        rotated = apply_system(random_unitary(4, seed), state)
        np.testing.assert_allclose(schmidt(rotated).coefficients, base, atol=1e-9)
        rotated = apply_env(random_unitary(4, seed + 50), state)
        np.testing.assert_allclose(schmidt(rotated).coefficients, base, atol=1e-9)


def test_phase_convention_pivot_is_real_nonnegative():
    for seed in range(5):
        dec = schmidt(random_state(4, 4, seed))
        for k in range(dec.rank):
            col = dec.system_vectors[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) <= 1e-12 and pivot.real >= 0


class TestIsEven:
    def test_bell_even(self):
        assert is_even(schmidt(bell_state()), tol=1e-9)

    def test_uneven(self):
        assert not is_even(schmidt(uneven_state()), tol=1e-9)

    def test_boundary_within_loose_tolerance(self):
        lam = np.array([np.sqrt(0.5) + 5e-10, np.sqrt(0.5) - 5e-10])
        vecs = np.eye(2, dtype=complex)
        dec = SchmidtDecomposition(lam, vecs, vecs)
        assert is_even(dec, tol=1e-8)
        assert not is_even(dec, tol=1e-10)


class TestDegeneracyBlocks:
    def test_bell_single_block(self):
        assert degeneracy_blocks(schmidt(bell_state())) == [[1, 2]]

    def test_uneven_splits(self):
        assert degeneracy_blocks(schmidt(uneven_state())) == [[1], [2]]

    def test_mixed_spectrum(self):
        lam = np.array([0.6, 0.6, np.sqrt(1 - 2 * 0.36)])
        vecs = np.eye(3, dtype=complex)
        dec = SchmidtDecomposition(lam, vecs, vecs)
        assert degeneracy_blocks(dec) == [[1, 2], [3]]


def test_even_state_basis_freedom():
    # rotating system vectors by W and env vectors by conj(W) leaves the state fixed
    for rank in (2, 3, 4):
        lam = np.full(rank, 1 / np.sqrt(rank))
        state = spectrum_state(lam, seed_s=rank, seed_e=rank + 10)
        dec = schmidt(state)
        w = random_unitary(rank, rank + 20).mat
        rotated = SchmidtDecomposition(
            dec.coefficients, dec.system_vectors @ w, dec.env_vectors @ np.conj(w)
        )
        assert np.linalg.norm(reconstruct(rotated).amps - reconstruct(dec).amps) <= 1e-9


def test_decomposition_validation():
    vecs = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="descending"):
        SchmidtDecomposition(np.array([0.1, np.sqrt(0.99)]), vecs, vecs)
    with pytest.raises(ValueError, match="sum to 1"):
        SchmidtDecomposition(np.array([0.9, 0.1]), vecs, vecs)
    with pytest.raises(ValueError, match="orthonormal"):
        SchmidtDecomposition(np.array([R, R]), np.ones((2, 2), dtype=complex), vecs)


@pytest.mark.parametrize("cell", ["[1, 0, 5]", "[true, false]", "[1]"])
def test_decomposition_cells_must_be_two_numbers(cell):
    text = '{"lambda": [1.0], "s_vecs": [[%s]], "e_vecs": [[[1, 0]]]}' % cell
    with pytest.raises(ParseError, match="cell"):
        decomposition_from_json(text)


@pytest.mark.parametrize(
    "kind, text",
    [
        (ParseError, '{"lambda": [NaN], "s_vecs": [[[1, 0]]], "e_vecs": [[[1, 0]]]}'),
        (NonOrthonormalBasis, '{"lambda": [1.0], "s_vecs": [[[NaN, 0]]], "e_vecs": [[[1, 0]]]}'),
    ],
    ids=["lambda", "cell"],
)
def test_decomposition_nan_literals_are_rejected(kind, text):
    with pytest.raises(kind):
        decomposition_from_json(text)


def test_serialization_round_trip():
    dec = schmidt(random_state(3, 4, 77))
    text = decomposition_to_json(dec)
    back = decomposition_from_json(text)
    assert np.array_equal(back.coefficients, dec.coefficients)
    assert np.array_equal(back.system_vectors, dec.system_vectors)
    assert np.array_equal(back.env_vectors, dec.env_vectors)


def reference_schmidt(state):
    """``schmidt`` and the checks of ``SchmidtDecomposition`` as first written:
    a per-column phase loop, ``np.diff``, ``np.sum`` and a Gram defect against
    ``np.eye``.  Returns the unvalidated coefficient and vector arrays."""
    rho = state.amps @ state.amps.conj().T
    evals, evecs = np.linalg.eigh(rho)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    noise_floor = rho.shape[0] * np.finfo(float).eps * max(float(evals[0]), 0.0)
    keep = evals > max(SCHMIDT_CUTOFF**2, noise_floor)
    lam = np.sqrt(evals[keep])
    svecs = evecs[:, keep].copy()
    for k in range(lam.size):
        pivot = int(np.argmax(np.abs(svecs[:, k])))
        phase = svecs[pivot, k]
        svecs[:, k] *= np.conj(phase) / abs(phase)
    evecs_out = state.amps.T @ svecs.conj() / lam[np.newaxis, :]
    if np.any(np.diff(lam) > 0):
        raise ParseError("coefficients must be sorted descending")
    if not np.all(lam > SCHMIDT_CUTOFF):
        raise ParseError(f"coefficients must exceed the zero cutoff {SCHMIDT_CUTOFF}")
    if not abs(float(np.sum(lam**2)) - 1.0) <= 1e-9:
        raise NotNormalized("squared coefficients must sum to 1 within 1e-9")
    for what, block in (("system_vectors", svecs), ("env_vectors", evecs_out)):
        gram = np.conj(block).swapaxes(-1, -2) @ block
        defect = float(np.max(np.abs(gram - np.eye(block.shape[-1]))))
        if not defect <= 1e-9:
            raise NonOrthonormalBasis(f"{what} columns deviate from orthonormality by {defect:.3g}")
    return lam, svecs, evecs_out


SPECTRA = ("distinct", "degenerate", "rank-deficient", "near-cutoff", "fine-grained")


def drawn_state(kind: str, seed: int):
    """A seeded state whose Schmidt spectrum is of the given kind."""
    rng = np.random.default_rng([seed, SPECTRA.index(kind)])
    if kind == "fine-grained":
        m_total = int(rng.integers(1, 33))
        n = int(rng.integers(1, min(4, m_total) + 1))
        cuts = np.sort(rng.choice(np.arange(1, m_total), n - 1, replace=False))
        parts = np.diff([0, *cuts, m_total])
        return fine_grain(RationalWeights(tuple(int(p) for p in parts), m_total), n).state
    rank = int(rng.integers(2, 6))
    if kind in ("distinct", "rank-deficient"):
        lam = np.sort(rng.uniform(0.05, 1.0, rank))[::-1]
    elif kind == "degenerate":
        lam = np.sort(rng.choice(rng.uniform(0.05, 1.0, 2), rank))[::-1]
    else:
        lam = np.array([*rng.uniform(0.3, 1.0, rank - 1), 10 ** rng.uniform(-11, -4)])
    dim_s = rank + (int(rng.integers(1, 3)) if kind == "rank-deficient" else 0)
    dim_e = dim_s + int(rng.integers(0, 3))
    svecs = random_basis(dim_s, int(rng.integers(2**31))).vectors[:, :rank]
    evecs = random_basis(dim_e, int(rng.integers(2**31))).vectors[:, :rank]
    return make_state((svecs * lam) @ evecs.T, normalize=True)


@pytest.mark.parametrize("kind", SPECTRA)
def test_schmidt_matches_serial_reference_bit_for_bit(kind):
    for seed in range(80):
        state = drawn_state(kind, seed)
        try:
            expected = reference_schmidt(state)
        except (NonOrthonormalBasis, NotNormalized, ParseError) as exc:
            with pytest.raises(type(exc)) as got:
                schmidt(state)
            assert str(got.value) == str(exc)
            continue
        dec = schmidt(state)
        for want, have in zip(expected, (dec.coefficients, dec.system_vectors, dec.env_vectors)):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()
