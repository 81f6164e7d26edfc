"""Envariance decisions, canonical transforms, and the Procrustes oracle."""

from __future__ import annotations

import numpy as np
import pytest

from envarkit import (
    DimensionMismatch,
    IndexOutOfRange,
    LocalUnitary,
    NonOrthonormalBasis,
    apply_env,
    apply_system,
    check_envariance,
    degeneracy_blocks,
    oracle_best_counter,
    phase_transform,
    random_basis,
    schmidt,
    swap_transform,
)
from helpers import bell_state, random_state, random_unitary, spectrum_state, uneven_state

EYE2 = np.eye(2, dtype=complex)


class TestPhaseTransform:
    def test_diagonal_on_computational_basis(self):
        u = phase_transform((1, 2), (np.pi / 3, -np.pi / 3), EYE2)
        np.testing.assert_allclose(
            u.mat, np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)]), atol=1e-15
        )

    def test_zero_betas_identity(self):
        u = phase_transform((1, 2), (0.0, 0.0), EYE2)
        np.testing.assert_allclose(u.mat, EYE2)

    def test_negated_betas_invert(self):
        basis = random_basis(3, 5).vectors
        u = phase_transform((1, 3), (0.8, -1.2), basis)
        v = phase_transform((1, 3), (-0.8, 1.2), basis)
        assert np.max(np.abs((u @ v).mat - np.eye(3))) <= 1e-12

    def test_identity_on_unselected_vectors(self):
        basis = random_basis(3, 6).vectors
        u = phase_transform((1,), (2.1,), basis)
        np.testing.assert_allclose(u.mat @ basis[:, 2], basis[:, 2], atol=1e-12)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            phase_transform((1,), (0.5,), np.ones((2, 2)))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="phases"):
            phase_transform((1, 2), (0.5,), EYE2)


class TestSwapTransform:
    def test_involution(self):
        basis = random_basis(3, 9).vectors
        u = swap_transform(1, 2, basis)
        assert np.max(np.abs((u @ u).mat - np.eye(3))) <= 1e-12

    def test_bell_swap_reproduces_crossed_state(self):
        state = bell_state()
        dec = schmidt(state)
        swapped = apply_system(swap_transform(1, 2, dec.system_vectors), state)
        # the swap exchanges which environment vector pairs with which system vector
        crossed = (dec.system_vectors[:, [1, 0]] * dec.coefficients) @ dec.env_vectors.T
        np.testing.assert_allclose(swapped.amps, crossed, atol=1e-12)

    def test_third_vector_fixed(self):
        basis = random_basis(3, 10).vectors
        u = swap_transform(1, 2, basis)
        np.testing.assert_allclose(u.mat @ basis[:, 2], basis[:, 2], atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            swap_transform(1, 3, EYE2)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            swap_transform(2, 2, EYE2)


class TestCheckEnvariance:
    def test_bell_swap_envariant(self):
        state = bell_state()
        dec = schmidt(state)
        u = swap_transform(1, 2, dec.system_vectors)
        verdict = check_envariance(state, u)
        assert verdict.envariant and verdict.residual <= 1e-10
        # counter acts as the matching swap on the environment Schmidt vectors
        e1, e2 = dec.env_vectors.T
        np.testing.assert_allclose(verdict.counter.mat @ e1, e2, atol=1e-10)
        np.testing.assert_allclose(verdict.counter.mat @ e2, e1, atol=1e-10)

    def test_identity_envariant_with_identity_counter(self):
        verdict = check_envariance(bell_state(), LocalUnitary.identity(2))
        assert verdict.envariant
        np.testing.assert_allclose(verdict.counter.mat, EYE2, atol=1e-10)

    def test_uneven_swap_not_envariant(self):
        state = uneven_state()
        u = swap_transform(1, 2, schmidt(state).system_vectors)
        verdict = check_envariance(state, u)
        assert not verdict.envariant
        assert verdict.counter is None
        assert verdict.residual > 0.3

    def test_uneven_phases_envariant(self):
        state = uneven_state()
        dec = schmidt(state)
        for betas in ((0.3, -2.2), (1.0, 1.0), (-np.pi, np.pi / 7)):
            u = phase_transform((1, 2), betas, dec.system_vectors)
            verdict = check_envariance(state, u)
            assert verdict.envariant and verdict.residual <= 1e-9

    def test_counter_restores_strictly(self):
        state = spectrum_state([0.6, 0.6, np.sqrt(1 - 0.72)], seed_s=3, seed_e=4)
        dec = schmidt(state)
        block = degeneracy_blocks(dec)[0]
        u = swap_transform(block[0], block[1], dec.system_vectors)
        verdict = check_envariance(state, u)
        assert verdict.envariant
        restored = apply_env(verdict.counter, apply_system(u, state))
        assert np.linalg.norm(restored.amps - state.amps) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_envariance(bell_state(), LocalUnitary.identity(3))

    def test_relaxed_mode_matches_strict_for_generators(self):
        state = bell_state()
        u = swap_transform(1, 2, schmidt(state).system_vectors)
        strict = check_envariance(state, u)
        relaxed = check_envariance(state, u, up_to_phase=True)
        assert strict.envariant == relaxed.envariant is True

    def test_given_decomposition_gives_the_same_verdict(self):
        for seed in range(6):
            state = spectrum_state([0.6, 0.6, np.sqrt(1 - 0.72)], seed_s=seed, seed_e=seed + 9)
            dec = schmidt(state)
            for u in (swap_transform(1, 2, dec.system_vectors), swap_transform(2, 3, dec.system_vectors)):
                fresh = check_envariance(state, u)
                given = check_envariance(state, u, decomposition=dec)
                assert (given.envariant, given.residual) == (fresh.envariant, fresh.residual)
                assert (given.counter is None) == (fresh.counter is None)
                if fresh.counter is not None:
                    assert given.counter.mat.tobytes() == fresh.counter.mat.tobytes()

    def test_composition_of_envariant_transforms(self):
        state = bell_state()
        dec = schmidt(state)
        u = swap_transform(1, 2, dec.system_vectors)
        v = phase_transform((1, 2), (0.9, -0.2), dec.system_vectors)
        assert check_envariance(state, u @ v).envariant


class TestOracle:
    def test_never_computes_a_schmidt_form(self, monkeypatch):
        # the oracle audits check_envariance, so it must not share its decomposition
        import envarkit.envariance as envariance

        def forbidden(state):
            raise AssertionError("oracle_best_counter called schmidt")

        monkeypatch.setattr(envariance, "schmidt", forbidden)
        state = uneven_state()
        u = swap_transform(1, 2, schmidt(state).system_vectors)
        assert oracle_best_counter(state, u)[1] > 0.3

    def test_identity_on_bell(self):
        counter, residual = oracle_best_counter(bell_state(), LocalUnitary.identity(2))
        assert residual <= 1e-12
        np.testing.assert_allclose(counter.mat, EYE2, atol=1e-10)

    def test_uneven_swap_closed_form(self):
        # best overlap for swapping sqrt(1/3)/sqrt(2/3) branches is 2*sqrt(2)/3
        state = uneven_state()
        u = swap_transform(1, 2, schmidt(state).system_vectors)
        _, residual = oracle_best_counter(state, u)
        assert residual == pytest.approx(np.sqrt(2 - 2 * (2 * np.sqrt(2) / 3)), abs=1e-12)

    def test_envariant_inputs_reach_zero_residual(self):
        for seed in range(20):
            state = random_state(2 + seed % 4, 2 + (seed + 1) % 4, seed)
            dec = schmidt(state)
            rng = np.random.default_rng(seed + 5000)
            betas = rng.uniform(-np.pi, np.pi, dec.rank)
            u = phase_transform(tuple(range(1, dec.rank + 1)), betas, dec.system_vectors)
            counter, residual = oracle_best_counter(state, u)
            assert residual <= 1e-9
            constructed = check_envariance(state, u)
            # both counters restore the same state
            a = apply_env(counter, apply_system(u, state)).amps
            b = apply_env(constructed.counter, apply_system(u, state)).amps
            assert np.linalg.norm(a - b) <= 1e-9

    def test_wide_environment_counter_is_identity_off_support(self):
        state = random_state(2, 5, 31)
        counter, residual = oracle_best_counter(state, LocalUnitary.identity(2))
        assert residual <= 1e-9
        # environment directions with no amplitude support stay untouched
        dec = schmidt(state)
        proj = dec.env_vectors @ dec.env_vectors.conj().T
        comp = np.eye(5) - proj
        np.testing.assert_allclose(comp @ counter.mat @ comp, comp, atol=1e-9)


def _agreement_case(case: int):
    """Mixed population: random pairs, phases, degenerate swaps, uneven swaps."""
    kind = case % 4
    dim = 2 + case % 5
    if kind == 0:
        psi = random_state(dim, dim, 1000 + case)
        return psi, random_unitary(dim, 2000 + case)
    if kind == 1:
        psi = random_state(dim, dim, 3000 + case)
        dec = schmidt(psi)
        rng = np.random.default_rng(4000 + case)
        betas = rng.uniform(-np.pi, np.pi, dec.rank)
        return psi, phase_transform(tuple(range(1, dec.rank + 1)), betas, dec.system_vectors)
    rng = np.random.default_rng(5000 + case)
    lam_sq = rng.uniform(0.2, 1.0, dim)
    if kind == 2:
        lam_sq[1] = lam_sq[0]
    else:
        lam_sq *= np.linspace(1.0, 3.0, dim)
    lam = np.sort(np.sqrt(lam_sq / lam_sq.sum()))[::-1]
    psi = spectrum_state(lam, seed_s=6000 + case, seed_e=7000 + case)
    dec = schmidt(psi)
    if kind == 2:
        block = next(b for b in degeneracy_blocks(dec) if len(b) >= 2)
        return psi, swap_transform(block[0], block[1], dec.system_vectors)
    i, j = 1, 2
    if dec.coefficients[i - 1] - dec.coefficients[j - 1] <= 1e-6:
        j = dec.rank
    return psi, swap_transform(i, j, dec.system_vectors)


def test_decision_agrees_with_oracle_on_mixed_population():
    saw_envariant = saw_not = 0
    for case in range(500):
        psi, u = _agreement_case(case)
        verdict = check_envariance(psi, u)
        _, best = oracle_best_counter(psi, u)
        assert verdict.envariant == (best <= 1e-7), f"case {case}: {verdict.residual} vs {best}"
        saw_envariant += verdict.envariant
        saw_not += not verdict.envariant
    assert saw_envariant >= 100 and saw_not >= 100


def test_swap_envariance_iff_equal_coefficients():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        lam_sq = rng.uniform(0.05, 1.0, dim)
        if seed % 2 == 0:
            lam_sq[1] = lam_sq[0]
        lam = np.sort(np.sqrt(lam_sq / lam_sq.sum()))[::-1]
        psi = spectrum_state(lam, seed_s=seed + 100, seed_e=seed + 200)
        dec = schmidt(psi)
        for i in range(1, dec.rank):
            u = swap_transform(i, i + 1, dec.system_vectors)
            expected = dec.coefficients[i - 1] - dec.coefficients[i] <= 1e-9
            assert check_envariance(psi, u).envariant == expected
