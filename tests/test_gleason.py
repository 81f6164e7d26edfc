"""Frame functions: basis sums, Haar sampling, and the audit."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from envarkit import (
    BasisSample,
    CustomFrame,
    DimensionMismatch,
    PowerOverlapFrame,
    QuadraticFrame,
    audit,
    frame_sum,
    random_basis,
)


def e_vec(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


class TestFrameSum:
    def test_maximally_mixed_quadratic(self):
        frame = QuadraticFrame(np.eye(3) / 3)
        for seed in range(5):
            assert frame_sum(frame, random_basis(3, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_born_form_sums_to_one(self):
        frame = PowerOverlapFrame(e_vec(3, 0), 2.0)
        for seed in range(5):
            assert frame_sum(frame, random_basis(3, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_quartic_witness_basis(self):
        frame = PowerOverlapFrame(e_vec(3, 0), 4.0)
        vectors = np.array(
            [[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]], dtype=complex
        ).T / np.sqrt(2)
        basis = BasisSample(vectors, seed=0)
        assert frame_sum(frame, basis) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frame_sum(QuadraticFrame(np.eye(3) / 3), random_basis(4, 0))

    def test_order_and_phase_invariance(self):
        frame = PowerOverlapFrame(e_vec(3, 0), 3.0)
        basis = random_basis(3, 42)
        total = frame_sum(frame, basis)
        rng = np.random.default_rng(1)
        perm = rng.permutation(3)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        shuffled = BasisSample(basis.vectors[:, perm] * phases, seed=42)
        assert frame_sum(frame, shuffled) == pytest.approx(total, abs=1e-12)


class TestRandomBasis:
    def test_deterministic(self):
        a = random_basis(3, 42)
        b = random_basis(3, 42)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("seed", range(10))
    def test_orthonormal(self, seed):
        v = random_basis(3, seed).vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) <= 1e-10

    def test_first_component_haar_moment(self):
        # E|<e_1, v_1>|^2 = 1/3 for Haar-random bases in dimension 3
        total = 0.0
        n = 10_000
        for seed in range(n):
            total += abs(random_basis(3, seed).vectors[0, 0]) ** 2
        assert total / n == pytest.approx(1 / 3, abs=0.02)

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            random_basis(1, 0)


class TestFrameValidation:
    def test_quadratic_needs_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            QuadraticFrame(np.eye(3))

    def test_quadratic_needs_psd(self):
        rho = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            QuadraticFrame(rho)

    def test_power_overlap_needs_unit_vector(self):
        with pytest.raises(ValueError, match="unit"):
            PowerOverlapFrame(np.array([2.0, 0.0]), 2.0)


class TestAudit:
    def test_seeded_quadratic_consistent(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        report = audit(QuadraticFrame(rho / np.trace(rho).real), 3, 1000, seed=0)
        assert report.verdict == "CONSISTENT"
        assert report.max_dev <= 1e-9

    def test_quartic_violates(self):
        report = audit(PowerOverlapFrame(e_vec(3, 0), 4.0), 3, 1000, seed=0)
        assert report.verdict == "VIOLATION"
        assert report.max_dev >= 0.4

    def test_born_form_consistent(self):
        report = audit(PowerOverlapFrame(e_vec(3, 0), 2.0), 3, 1000, seed=0)
        assert report.verdict == "CONSISTENT"

    def test_dimension_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="greater than two"):
            audit(QuadraticFrame(np.eye(2) / 2), 2, 10)

    def test_custom_frame(self):
        constant = CustomFrame(lambda v: 0.25, label="quarter")
        report = audit(constant, 4, 10, seed=0)
        assert report.verdict == "CONSISTENT"
        assert report.kind == "quarter"

    def test_nan_deviation_is_a_violation(self):
        report = audit(CustomFrame(lambda v: float("nan")), 3, 4)
        assert report.verdict == "VIOLATION"
        assert np.isnan(report.max_dev)
        calls = itertools.count()
        nan_from_third_basis = CustomFrame(lambda v: 1 / 3 if next(calls) < 6 else float("nan"))
        report = audit(nan_from_third_basis, 3, 4, seed=5)
        assert report.verdict == "VIOLATION"
        assert np.isnan(report.max_dev)
        assert report.worst_basis_seed == 7

    def test_worst_seed_reproduces_max_dev(self):
        frame = PowerOverlapFrame(e_vec(3, 0), 4.0)
        report = audit(frame, 3, 200, seed=7)
        dev = abs(frame_sum(frame, random_basis(3, report.worst_basis_seed)) - 1.0)
        assert dev == pytest.approx(report.max_dev, abs=1e-15)
