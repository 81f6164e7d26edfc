"""State algebra: construction, local unitaries, phase equality, reductions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarkit import (
    DimensionMismatch,
    LocalUnitary,
    NotNormalized,
    NotUnitary,
    ParseError,
    ZeroState,
    apply_env,
    apply_system,
    equal_up_to_global_phase,
    load_state,
    make_state,
    premeasure,
    reduced_density_system,
    save_state,
    schmidt,
    state_from_json,
    state_to_json,
)
from helpers import bell_state, random_state, random_unitary, uneven_state

R = 2**-0.5


class TestMakeState:
    def test_bell(self):
        state = make_state([[R, 0], [0, R]])
        np.testing.assert_allclose(state.amps, np.diag([R, R]).astype(complex))
        assert state.dim_s == state.dim_e == 2

    def test_product_basis_state(self):
        state = make_state([[1, 0], [0, 0]])
        assert state.amps[0, 0] == 1.0

    def test_normalize_rescales(self):
        state = make_state([[2, 0], [0, 0]], normalize=True)
        np.testing.assert_allclose(state.amps, [[1, 0], [0, 0]])

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroState):
            make_state([[0, 0], [0, 0]])

    def test_unnormalized_rejected_by_default(self):
        with pytest.raises(NotNormalized):
            make_state([[1, 0], [0, 1]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_state([[np.nan, 0], [0, 1]])


class TestLocalUnitary:
    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            LocalUnitary([[1, 1], [0, 1]])

    def test_composition(self):
        u = random_unitary(3, 1)
        v = random_unitary(3, 2)
        np.testing.assert_allclose((u @ v).mat, u.mat @ v.mat)

    def test_identity(self):
        np.testing.assert_allclose(LocalUnitary.identity(4).mat, np.eye(4))


class TestApply:
    def test_system_swap_on_bell(self):
        swap = LocalUnitary([[0, 1], [1, 0]])
        out = apply_system(swap, bell_state())
        np.testing.assert_allclose(out.amps, [[0, R], [R, 0]], atol=1e-15)

    def test_identity_is_noop(self):
        state = random_state(3, 4, 5)
        out = apply_system(LocalUnitary.identity(3), state)
        np.testing.assert_allclose(out.amps, state.amps)

    def test_system_phase_on_bell(self):
        u = LocalUnitary(np.diag([np.exp(1j * np.pi), 1.0]))
        out = apply_system(u, bell_state())
        np.testing.assert_allclose(out.amps, [[-R, 0], [0, R]], atol=1e-15)

    def test_env_counterswap_restores_bell(self):
        swap = LocalUnitary([[0, 1], [1, 0]])
        swapped = apply_system(swap, bell_state())
        restored = apply_env(swap, swapped)
        np.testing.assert_allclose(restored.amps, bell_state().amps, atol=1e-15)

    def test_env_phase_counters_system_phase(self):
        alphas = np.exp(1j * np.array([0.4, -1.1]))
        state = make_state(np.diag(alphas * R))
        u_s = LocalUnitary(np.diag(np.exp(1j * np.array([0.7, 2.2]))))
        u_e = LocalUnitary(np.diag(np.exp(-1j * np.array([0.7, 2.2]))))
        out = apply_env(u_e, apply_system(u_s, state))
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_system(LocalUnitary.identity(3), bell_state())
        with pytest.raises(DimensionMismatch):
            apply_env(LocalUnitary.identity(3), bell_state())

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_preserved(self, seed):
        state = random_state(4, 5, seed)
        u = random_unitary(4, seed + 100)
        v = random_unitary(5, seed + 200)
        assert abs(np.linalg.norm(apply_system(u, state).amps) - 1) <= 1e-9
        assert abs(np.linalg.norm(apply_env(v, state).amps) - 1) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_system_env_actions_commute(self, seed):
        state = random_state(3, 4, seed)
        u = random_unitary(3, seed + 300)
        v = random_unitary(4, seed + 400)
        a = apply_env(v, apply_system(u, state)).amps
        b = apply_system(u, apply_env(v, state)).amps
        assert np.max(np.abs(a - b)) <= 1e-12


class TestEqualUpToGlobalPhase:
    def test_reflexive(self):
        state = random_state(2, 3, 9)
        equal, theta = equal_up_to_global_phase(state, state)
        assert equal and theta == 0.0

    def test_sign_flip_gives_pi(self):
        state = bell_state()
        flipped = make_state(-state.amps)
        equal, theta = equal_up_to_global_phase(state, flipped)
        assert equal
        assert theta == pytest.approx(np.pi)

    def test_swapped_bell_not_equal(self):
        swapped = apply_system(LocalUnitary([[0, 1], [1, 0]]), bell_state())
        equal, _ = equal_up_to_global_phase(bell_state(), swapped)
        assert not equal

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equal_up_to_global_phase(bell_state(), random_state(2, 3, 1))

    @given(seed=st.integers(0, 10**6), phi=st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_equivalence_relation(self, seed, phi):
        a = random_state(3, 3, seed)
        b = make_state(np.exp(1j * phi) * a.amps)
        eq_ab, theta_ab = equal_up_to_global_phase(a, b)
        eq_ba, theta_ba = equal_up_to_global_phase(b, a)
        assert eq_ab and eq_ba  # symmetric
        # the two minimizers cancel: e^(i(t_ab + t_ba)) = 1
        assert abs(np.exp(1j * (theta_ab + theta_ba)) - 1) <= 1e-9
        c = make_state(np.exp(-0.5j) * b.amps)
        eq_bc, _ = equal_up_to_global_phase(b, c)
        eq_ac, _ = equal_up_to_global_phase(a, c, tol=2e-9)
        assert eq_bc and eq_ac  # transitive at doubled tolerance


class TestReducedDensity:
    def test_bell_maximally_mixed(self):
        np.testing.assert_allclose(reduced_density_system(bell_state()), np.eye(2) / 2, atol=1e-15)

    def test_product_pure_marginal(self):
        rho = reduced_density_system(make_state([[1, 0], [0, 0]]))
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]))

    def test_uneven_diagonal(self):
        rho = reduced_density_system(uneven_state())
        np.testing.assert_allclose(rho, np.diag([1 / 3, 2 / 3]), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_one_and_psd(self, seed):
        rho = reduced_density_system(random_state(4, 3, seed))
        assert abs(np.trace(rho).real - 1) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10


class TestPremeasure:
    def test_bell_branch_structure(self):
        state = bell_state()
        dec = schmidt(state)
        tri = premeasure(state, dec)
        assert tri.dim_m == 3
        np.testing.assert_allclose(tri.amps[0], 0)
        for k in range(2):
            expected = dec.coefficients[k] * np.outer(dec.system_vectors[:, k], dec.env_vectors[:, k])
            np.testing.assert_allclose(tri.amps[k + 1], expected, atol=1e-15)
        # exactly two branch slices, each of weight 1/2
        weights = [np.linalg.norm(tri.amps[m]) ** 2 for m in range(3)]
        np.testing.assert_allclose(weights, [0.0, 0.5, 0.5], atol=1e-12)

    def test_product_state_single_branch(self):
        state = make_state([[1, 0], [0, 0]])
        tri = premeasure(state, schmidt(state))
        assert tri.dim_m == 2
        assert abs(tri.amps[1, 0, 0]) == pytest.approx(1.0)

    def test_uneven_branch_amplitudes(self):
        state = uneven_state()
        tri = premeasure(state, schmidt(state))
        weights = sorted(np.linalg.norm(tri.amps[m]) ** 2 for m in range(tri.dim_m))
        np.testing.assert_allclose(weights, [0.0, 1 / 3, 2 / 3], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_trace_matches_reduced_density(self, seed):
        state = random_state(3, 4, seed)
        tri = premeasure(state, schmidt(state))
        rho = np.einsum("mje,mke->jk", tri.amps, tri.amps.conj())
        assert np.max(np.abs(rho - reduced_density_system(state))) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            premeasure(random_state(3, 3, 0), schmidt(bell_state()))


class TestJsonFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        state = random_state(3, 4, 11)
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert np.array_equal(loaded.amps, state.amps)

    def test_writer_layout(self):
        text = state_to_json(make_state([[1, 0], [0, 0]]))
        assert text.startswith('{"dim_s": 2, "dim_e": 2, "amps": ')
        assert "[1, 0]" in text

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            state_from_json("{not json")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            state_from_json('{"dim_s": 2, "amps": []}')

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            state_from_json('{"dim_s": 2, "dim_e": 1, "amps": [[[1, 0]]]}')

    @pytest.mark.parametrize("dims", ['"dim_s": true, "dim_e": 1', '"dim_s": 1, "dim_e": true'])
    def test_boolean_dims_rejected(self, dims):
        with pytest.raises(ParseError, match="positive integers"):
            state_from_json('{%s, "amps": [[[1, 0]]]}' % dims)

    @pytest.mark.parametrize(
        "cell", ["[1, 0, 5]", "[1]", "[]", "1", '"1"', "[true, false]", "[1, null]", '[1, "0"]']
    )
    def test_cells_must_be_two_numbers(self, cell):
        with pytest.raises(ParseError, match="cell"):
            state_from_json('{"dim_s": 1, "dim_e": 1, "amps": [[%s]]}' % cell)

    def test_unnormalized_file(self):
        with pytest.raises(NotNormalized):
            state_from_json('{"dim_s": 1, "dim_e": 2, "amps": [[[1, 0], [1, 0]]]}')
