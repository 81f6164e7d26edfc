"""Frame functions on unit vectors and the basis-sum audit.

A frame function assigns a nonnegative real to every unit vector; the
normalization condition demands the values over any orthonormal basis sum
to 1.  The audit samples seeded Haar-random bases and reports the worst
deviation - it is a falsifier for candidate probability assignments, not a
proof of anything.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NotNormalized, ParseError
from .states import _BASIS_TOL, _as_complex_array, _check_orthonormal

AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class BasisSample:
    """Orthonormal basis (columns) remembered together with its seed."""

    vectors: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        vecs = np.array(self.vectors, dtype=complex)
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1] or vecs.shape[0] < 2:
            raise DimensionMismatch(f"basis must be square with dim >= 2, got shape {vecs.shape}")
        _check_orthonormal(vecs, _BASIS_TOL, "basis")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def random_basis(dim: int, seed: int) -> BasisSample:
    """Haar-distributed orthonormal basis from a seeded complex Gaussian.

    QR of a Ginibre matrix with the R-diagonal rephased to be positive; that
    phase convention makes the factorization (and hence the sample) unique.
    """
    if dim < 2:
        raise DimensionMismatch(f"basis dimension must be at least 2, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return BasisSample(q, seed)


@dataclass(frozen=True)
class QuadraticFrame:
    """``p(v) = <v| rho |v>`` for a Hermitian PSD trace-1 matrix rho."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = _as_complex_array(self.rho, 2, "rho")
        if rho.shape[0] != rho.shape[1]:
            raise DimensionMismatch(f"rho must be square, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ParseError("rho must be Hermitian within 1e-10")
        if abs(float(np.trace(rho).real) - 1.0) > 1e-10:
            raise NotNormalized("rho must have unit trace within 1e-10")
        if float(np.min(np.linalg.eigvalsh(rho))) < -1e-10:
            raise ParseError("rho must be positive semidefinite within 1e-10")
        object.__setattr__(self, "rho", rho)

    @property
    def kind(self) -> str:
        return "quadratic"

    @property
    def dim(self) -> int | None:
        return self.rho.shape[0]

    def value(self, v: np.ndarray) -> float:
        return float(np.real(np.conj(v) @ self.rho @ v))


@dataclass(frozen=True)
class PowerOverlapFrame:
    """``p(v) = |<v|w>|^alpha``; alpha = 2 is the quadratic (Born) form."""

    w: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        w = _as_complex_array(self.w, 1, "w")
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-10:
            raise NotNormalized("w must be a unit vector")
        if np.isnan(self.alpha):
            raise ParseError("alpha must be a number, got NaN")
        object.__setattr__(self, "w", w)

    @property
    def kind(self) -> str:
        return f"power:{self.alpha:g}"

    @property
    def dim(self) -> int | None:
        return self.w.shape[0]

    def value(self, v: np.ndarray) -> float:
        return float(np.abs(np.vdot(v, self.w)) ** self.alpha)


@dataclass(frozen=True)
class CustomFrame:
    """Arbitrary nonnegative evaluator on unit vectors."""

    evaluator: Callable[[np.ndarray], float]
    label: str = "custom"

    @property
    def kind(self) -> str:
        return self.label

    @property
    def dim(self) -> int | None:
        return None

    def value(self, v: np.ndarray) -> float:
        return float(self.evaluator(v))


FrameFunction = QuadraticFrame | PowerOverlapFrame | CustomFrame


def frame_sum(p: FrameFunction, basis: BasisSample) -> float:
    """Sum of ``p`` over the basis vectors."""
    if p.dim is not None and p.dim != basis.dim:
        raise DimensionMismatch(f"frame function dim {p.dim} != basis dim {basis.dim}")
    return float(sum(p.value(basis.vectors[:, i]) for i in range(basis.dim)))


@dataclass(frozen=True)
class AuditReport:
    kind: str
    dim: int
    trials: int
    max_dev: float
    mean_dev: float
    worst_basis_seed: int
    verdict: str

    def as_dict(self) -> dict:
        # not dataclasses.asdict, which deep-copies every value: 10 us a call against 1.5 us
        return {f.name: getattr(self, f.name) for f in fields(self)}


def audit(
    p: FrameFunction, dim: int, trials: int, seed: int = 0, tol: float = AUDIT_TOL
) -> AuditReport:
    """Check the basis-sum condition over seeded Haar-random bases.

    Dimension 3 is required: the normalization condition only pins down
    quadratic forms in dimension greater than two.  A NaN deviation is a
    ``VIOLATION``, reported as ``max_dev`` with the seed of its basis.
    """
    if dim < 3:
        raise DimensionMismatch("frame-function audit requires dimension greater than two")
    if trials < 1:
        raise ParseError("trials must be at least 1")
    devs = [abs(frame_sum(p, random_basis(dim, seed + t)) - 1.0) for t in range(trials)]
    worst = int(np.argmax(devs))  # the first maximum, or the first NaN
    verdict = "CONSISTENT" if devs[worst] <= tol else "VIOLATION"
    return AuditReport(p.kind, dim, trials, devs[worst], sum(devs) / trials, seed + worst, verdict)
