"""Frame functions on unit vectors and the basis-sum audit.

A frame function assigns a nonnegative real to every unit vector; the
normalization condition demands the values over any orthonormal basis sum
to 1.  The audit samples seeded Haar-random bases and reports the worst
deviation - it is a falsifier for candidate probability assignments, not a
proof of anything.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isnan
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NotNormalized, ParseError, _integer, _real, _shown
from .states import _BASIS_TOL, _as_complex_array, _check_orthonormal, _numeric_array, _unit_amps

AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class BasisSample:
    """Orthonormal basis (columns) remembered together with its seed."""

    vectors: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        vecs = _numeric_array(self.vectors, complex, "basis")
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1] or vecs.shape[0] < 2:
            raise DimensionMismatch(f"basis must be square with dim >= 2, got shape {vecs.shape}")
        _check_orthonormal(vecs, _BASIS_TOL, "basis")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def _haar_bases(dim: int, seeds) -> np.ndarray:
    """Haar bases (columns), one per seed: one stacked QR of Ginibre draws from
    ``default_rng(seed)``, the R-diagonal rephased positive so each is unique
    (Mezzadri); each block has the bits of its own 2-d QR.  A seed's one
    ``(2, d, d)`` draw is the stream of a real then an imaginary ``(d, d)`` draw."""
    raw = np.empty((len(seeds), 2, dim, dim))
    for t, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=raw[t])
    z = (raw[:, 0] + 1j * raw[:, 1]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def random_basis(dim: int, seed: int) -> BasisSample:
    """Haar-distributed orthonormal basis from a seeded complex Gaussian.

    ``dim`` and ``seed`` are read as ints (``operator.index``), and ``dim``
    may not exceed ``MAX_AUDIT_DIM``, checked before anything is drawn.
    """
    dim = _integer(dim, "basis dimension", DimensionMismatch)
    if dim < 2:
        raise DimensionMismatch(f"basis dimension must be at least 2, got {_shown(dim)}")
    if dim > MAX_AUDIT_DIM:
        raise DimensionMismatch(f"basis dimension {_shown(dim)} exceeds bound {MAX_AUDIT_DIM}")
    seed = _check_seed(seed)
    return BasisSample(_haar_bases(dim, [seed])[0], seed)


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

    def values(self, bases: np.ndarray) -> np.ndarray:
        # column by column: each basis gets the gemv and dot of a 1-d ``conj(v) @ rho @ v``
        cols = (bases[:, :, i : i + 1] for i in range(bases.shape[-1]))
        return np.array([np.real(np.conj(v).swapaxes(1, 2) @ self.rho @ v)[:, 0, 0] for v in cols])


@dataclass(frozen=True)
class PowerOverlapFrame:
    """``p(v) = |<v|w>|^alpha``; alpha = 2 is the quadratic (Born) form."""

    w: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        w = _unit_amps(self.w, 1, "w")
        if isnan(_real(self.alpha, "alpha", ParseError)):
            raise ParseError("alpha must be a number, got NaN")
        object.__setattr__(self, "w", w)

    @property
    def kind(self) -> str:
        return f"power:{self.alpha:g}"

    @property
    def dim(self) -> int | None:
        return self.w.shape[0]

    def values(self, bases: np.ndarray) -> np.ndarray:
        overlaps = np.abs(np.vecdot(bases, self.w[:, None], axis=-2)).T.tolist()
        # libm pow on each value; numpy's array power rounds differently
        try:
            return np.array([[x**self.alpha for x in row] for row in overlaps])
        except (OverflowError, ZeroDivisionError):  # where numpy's scalar power gives inf
            with np.errstate(over="ignore", divide="ignore"):
                return np.array([[np.float64(x) ** self.alpha for x in row] for row in overlaps])


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

    def values(self, bases: np.ndarray) -> np.ndarray:
        # basis by basis, column by column, as the serial audit calls it
        return np.array([[float(self.evaluator(v)) for v in basis.T] for basis in bases]).T


# ``values`` maps a (T, d, d) stack of bases (columns) to the (d, T) array of values
FrameFunction = QuadraticFrame | PowerOverlapFrame | CustomFrame


def _check_frame_dim(p: FrameFunction, dim: int) -> None:
    if p.dim is not None and p.dim != dim:
        raise DimensionMismatch(f"frame function dim {p.dim} != basis dim {dim}")


def frame_sum(p: FrameFunction, basis: BasisSample) -> float:
    """Sum of ``p`` over the basis vectors."""
    _check_frame_dim(p, basis.dim)
    return float(sum(p.values(basis.vectors[None])[:, 0]))


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


_AUDIT_CHUNK = 256  # bases per stacked draw, which bounds memory at large trial counts

# Largest dimension and trial count an audit accepts, checked before anything
# is drawn.  A stack of bases at dim 64 is a 16 MB ``(256, 2, 64, 64)`` draw
# and a few complex arrays of the same size; 10**6 trials keep 10**6 deviations.
MAX_AUDIT_DIM = 64
MAX_AUDIT_TRIALS = 1_000_000


def _check_seed(seed: int) -> int:
    """The seed as an int; numpy's default_rng rejects a negative one with a bare ValueError."""
    seed = _integer(seed, "seed", ParseError)
    if seed < 0:
        raise ParseError(f"seed must be nonnegative, got {_shown(seed)}")
    return seed


def _check_audit_size(dim: int, trials: int, seed: int) -> tuple[int, int, int]:
    """The audit's dimension, trial count and seed as ints, each within its bounds."""
    dim = _integer(dim, "frame-function audit dimension", DimensionMismatch)
    if dim < 3:
        raise DimensionMismatch("frame-function audit requires dimension greater than two")
    if dim > MAX_AUDIT_DIM:
        raise DimensionMismatch(
            f"frame-function audit dimension {_shown(dim)} exceeds bound {MAX_AUDIT_DIM}"
        )
    trials = _integer(trials, "trials", ParseError)
    if trials < 1:
        raise ParseError("trials must be at least 1")
    if trials > MAX_AUDIT_TRIALS:
        raise ParseError(f"trials {_shown(trials)} exceed bound {MAX_AUDIT_TRIALS}")
    return dim, trials, _check_seed(seed)


def audit(
    p: FrameFunction, dim: int, trials: int, seed: int = 0, tol: float = AUDIT_TOL
) -> AuditReport:
    """Check the basis-sum condition over seeded Haar-random bases.

    Dimension 3 is required: the normalization condition only pins down
    quadratic forms in dimension greater than two.  ``dim`` and ``trials``
    may not exceed ``MAX_AUDIT_DIM`` and ``MAX_AUDIT_TRIALS``.  A NaN
    deviation is a ``VIOLATION``, reported as ``max_dev`` with the seed of
    its basis.
    Bases are drawn and evaluated in stacks, but trial ``t`` still draws from
    its own ``default_rng(seed + t)``, so ``random_basis(dim, worst_basis_seed)``
    reproduces the worst basis, and a ``CustomFrame`` is called in serial order.
    """
    dim, trials, seed = _check_audit_size(dim, trials, seed)
    tol = _real(tol, "tol", ParseError)
    _check_frame_dim(p, dim)
    devs: list[float] = []
    for start in range(seed, seed + trials, _AUDIT_CHUNK):
        bases = _haar_bases(dim, range(start, min(start + _AUDIT_CHUNK, seed + trials)))
        _check_orthonormal(bases, _BASIS_TOL, "basis")
        bases.setflags(write=False)
        # Python sum adds the columns in order; np.sum pairs them where they are contiguous
        devs += np.abs(sum(p.values(bases)) - 1.0).tolist()
    worst = int(np.argmax(devs))  # the first maximum, or the first NaN
    verdict = "CONSISTENT" if devs[worst] <= tol else "VIOLATION"
    return AuditReport(p.kind, dim, trials, devs[worst], sum(devs) / trials, seed + worst, verdict)
