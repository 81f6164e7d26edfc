"""Frame functions: basis sums, Haar sampling, and the audit."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from envarkit import (
    AUDIT_TOL,
    BasisSample,
    CustomFrame,
    DimensionMismatch,
    NonOrthonormalBasis,
    PowerOverlapFrame,
    QuadraticFrame,
    audit,
    frame_sum,
    random_basis,
)
from envarkit.gleason import _haar_bases
from envarkit.states import _BASIS_TOL, _check_orthonormal


def serial_basis(dim: int, seed: int) -> np.ndarray:
    """One Haar basis from its own 2-d QR, the R-diagonal rephased positive."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def serial_value(p, v: np.ndarray) -> float:
    """The frame's value on one vector, by its scalar formula."""
    if isinstance(p, QuadraticFrame):
        return float(np.real(np.conj(v) @ p.rho @ v))
    if isinstance(p, PowerOverlapFrame):
        return float(np.abs(np.vdot(v, p.w))) ** p.alpha
    return float(p.evaluator(v))


def reference_audit(p, dim: int, trials: int, seed: int = 0, tol: float = AUDIT_TOL) -> dict:
    """``audit(...).as_dict()`` computed one basis and one vector at a time."""
    devs = []
    for t in range(trials):
        vectors = random_basis(dim, seed + t).vectors
        devs.append(abs(sum(serial_value(p, vectors[:, i]) for i in range(dim)) - 1.0))
    worst = int(np.argmax(devs))
    return {
        "kind": p.kind,
        "dim": dim,
        "trials": trials,
        "max_dev": devs[worst],
        "mean_dev": sum(devs) / trials,
        "worst_basis_seed": seed + worst,
        "verdict": "CONSISTENT" if devs[worst] <= tol else "VIOLATION",
    }


def random_frame(kind: str, dim: int, rng: np.random.Generator):
    """A seeded frame: 'quadratic', 'power:ALPHA' or 'custom'."""
    if kind == "quadratic":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        return QuadraticFrame(rho / np.trace(rho).real)
    if kind.startswith("power:"):
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return PowerOverlapFrame(w / np.linalg.norm(w), float(kind.partition(":")[2]))
    cut = float(rng.uniform(0.2, 0.8))
    return CustomFrame(lambda v: abs(v[0]) ** 3 + cut * abs(v[-1]) ** 1.5, label="custom")


FRAME_KINDS = ("quadratic", "power:1", "power:1.5", "power:3", "power:4", "power:inf", "custom")


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

    @pytest.mark.parametrize("dim", (2, 3, 8, 16))
    def test_matches_serial_qr_bit_for_bit(self, dim):
        for seed in range(20):
            assert np.array_equal(random_basis(dim, seed).vectors, serial_basis(dim, seed))

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            random_basis(1, 0)


class TestStackedOrthonormalityCheck:
    def test_passes_on_haar_stack(self):
        _check_orthonormal(_haar_bases(5, range(40)), _BASIS_TOL, "basis")

    def test_perturbed_last_basis_fails(self):
        stack = _haar_bases(5, range(40))
        stack[-1, 3, 2] += 1e-8
        with pytest.raises(NonOrthonormalBasis):
            _check_orthonormal(stack, _BASIS_TOL, "basis")

    @pytest.mark.parametrize(
        "block", [np.s_[:, :, :], np.s_[5], np.s_[5, :, :2]], ids=["stack", "square", "columns"]
    )
    def test_defect_matches_the_identity_reference(self, block):
        stack = _haar_bases(4, range(8))
        stack[5, 1, 0] += 3e-7
        vecs = stack[block]
        gram = np.conj(vecs).swapaxes(-1, -2) @ vecs
        want = float(np.max(np.abs(gram - np.eye(vecs.shape[-1]))))
        with pytest.raises(NonOrthonormalBasis, match=f"by {want:.3g}$"):
            _check_orthonormal(vecs, _BASIS_TOL, "basis")

    @pytest.mark.parametrize("where", [(0, 0, 0), (17, 2, 4), (39, 4, 1)])
    def test_nan_entry_fails(self, where):
        stack = _haar_bases(5, range(40))
        stack[where] = np.nan
        with pytest.raises(NonOrthonormalBasis):
            _check_orthonormal(stack, _BASIS_TOL, "basis")


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

    def test_overflowing_power_is_an_infinite_violation(self):
        # Python's float power raises here; the frame keeps numpy's inf
        with np.errstate(over="ignore", divide="ignore"):
            report = audit(PowerOverlapFrame(e_vec(3, 0), -1e4), 3, 5)
            assert frame_sum(PowerOverlapFrame(e_vec(3, 0), -1.0), BasisSample(np.eye(3), 0)) == np.inf
        assert report.verdict == "VIOLATION"
        assert report.max_dev == np.inf

    def test_worst_seed_reproduces_max_dev(self):
        frame = PowerOverlapFrame(e_vec(3, 0), 4.0)
        report = audit(frame, 3, 200, seed=7)
        dev = abs(frame_sum(frame, random_basis(3, report.worst_basis_seed)) - 1.0)
        assert dev == pytest.approx(report.max_dev, abs=1e-15)


class TestAuditAgainstSerialReference:
    @pytest.mark.parametrize("trials", (1, 16, 300))
    @pytest.mark.parametrize("dim", (3, 8, 16))
    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_report_is_bit_identical(self, kind, dim, trials):
        seed = 1000 * dim + trials
        frame = random_frame(kind, dim, np.random.default_rng(seed))
        assert audit(frame, dim, trials, seed).as_dict() == reference_audit(frame, dim, trials, seed)

    def test_custom_frame_gets_read_only_columns_in_serial_order(self):
        seen = []

        def evaluator(v):
            assert v.shape == (4,) and not v.flags.writeable
            seen.append(v.copy())
            return 0.25

        audit(CustomFrame(evaluator), 4, 3, seed=9)
        serial = [random_basis(4, 9 + t).vectors[:, i] for t in range(3) for i in range(4)]
        assert len(seen) == len(serial)
        assert all(np.array_equal(a, b) for a, b in zip(seen, serial))
