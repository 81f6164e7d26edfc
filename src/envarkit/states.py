"""Bipartite and tripartite pure states and the local unitaries acting on them.

States are dense complex amplitude arrays over the computational product
basis, row-major with the system index first: ``amps[j, k]`` multiplies
``|j>_S |k>_E``.  All values are immutable after construction and every
operation returns a fresh value, so instances are safe to share across
concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    NonOrthonormalBasis,
    NotNormalized,
    NotUnitary,
    ParseError,
    ZeroState,
    _integer,
    _real,
    _shown,
)

if TYPE_CHECKING:
    from .schmidt import SchmidtDecomposition

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10
_BASIS_TOL = 1e-10


def _fmt17(x: float) -> str:
    """Render a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _check_orthonormal(block: np.ndarray, tol: float, what: str, error=NonOrthonormalBasis) -> None:
    """Raise ``error`` unless ``max |B†B - I|`` over the columns of the block (or of every
    block in a stack) is ``<= tol``; NaN fails, and so does a Gram entry that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect is refused below
        gram = np.conj(block).swapaxes(-1, -2) @ block
    d = block.shape[-1]
    # the diagonals of the fresh Gram stack, as a strided view of its flattened blocks
    gram.reshape(gram.shape[:-2] + (d * d,))[..., :: d + 1] -= 1
    defect = float(np.abs(gram).max())
    if not defect <= tol:
        raise error(f"{what} columns deviate from orthonormality by {defect:.3g}")


def _numeric_array(values, dtype, what: str) -> np.ndarray:
    """A fresh ``dtype`` array of ``values``; numpy's refusal of a ragged or
    non-numeric input, or of an int past the dtype's range, is raised as ``ParseError``."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a rectangular array of numbers: {exc}") from exc


def _as_complex_array(values, ndim: int, what: str) -> np.ndarray:
    arr = _numeric_array(values, complex, what)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatch(
            f"{what} must be a nonempty rank-{ndim} array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} must be finite (no NaN/Inf entries)")
    arr.setflags(write=False)
    return arr


def _check_unit(amps: np.ndarray, what: str) -> None:
    """Raise ``NotNormalized`` unless the norm of ``amps``, named ``what``, is 1 within ``NORM_TOL``."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and refused below
        norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NotNormalized(f"{what} is not a unit vector: norm {norm:.17g}, not 1 within {NORM_TOL}")


def _unit_amps(values, ndim: int, what: str) -> np.ndarray:
    """Validated read-only amplitude array whose norm is 1 within ``NORM_TOL``."""
    amps = _as_complex_array(values, ndim, what)
    _check_unit(amps, what)
    return amps


@dataclass(frozen=True)
class BipartiteState:
    """Unit-norm pure state of a system-environment pair."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _unit_amps(self.amps, 2, "amplitude matrix"))

    @property
    def dim_s(self) -> int:
        return self.amps.shape[0]

    @property
    def dim_e(self) -> int:
        return self.amps.shape[1]


@dataclass(frozen=True)
class TripartiteState:
    """Unit-norm pure state over memory, system and environment factors.

    A distinct type rather than a reshaped :class:`BipartiteState`, so memory
    and system indices cannot be confused.  ``amps[m, j, k]`` multiplies
    ``|m>_M |j>_S |k>_E``.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _unit_amps(self.amps, 3, "amplitude tensor"))

    @property
    def dim_m(self) -> int:
        return self.amps.shape[0]

    @property
    def dim_s(self) -> int:
        return self.amps.shape[1]

    @property
    def dim_e(self) -> int:
        return self.amps.shape[2]


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary acting on one tensor factor only."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_complex_array(self.mat, 2, "unitary matrix")
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"unitary must be square, got shape {mat.shape}")
        _check_orthonormal(mat, UNITARY_TOL, "unitary matrix", NotUnitary)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other: "LocalUnitary") -> "LocalUnitary":
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot compose {self.dim}-dim with {other.dim}-dim unitary")
        return LocalUnitary(self.mat @ other.mat)

    @classmethod
    def identity(cls, dim: int) -> "LocalUnitary":
        """The identity on a factor of dimension ``dim``, an int of at least 1; any
        other ``dim``, or one of more entries than numpy can size, raises
        ``DimensionMismatch``."""
        dim = _integer(dim, "dimension", DimensionMismatch)
        if dim < 1:
            raise DimensionMismatch(f"dimension must be at least 1, got {_shown(dim)}")
        try:
            mat = np.eye(dim, dtype=complex)
        except ValueError as exc:  # numpy refuses a size past its index range
            raise DimensionMismatch(f"dimension {_shown(dim)} is too large") from exc
        return cls(mat)


def make_state(coeffs, normalize: bool = False) -> BipartiteState:
    """Build a validated bipartite state from an amplitude matrix.

    Unnormalized input is rejected unless ``normalize=True``; silent
    rescaling hides bugs in callers that believe they built a unit vector.

    Each array is converted and checked once: the state is built around the
    checked array, without ``BipartiteState``'s own second pass.

    A norm that overflows is found again after dividing by the largest
    real or imaginary part, so huge coefficients normalize too; every other
    state is divided by its norm alone.

    Raises:
        ZeroState: every coefficient is zero.
        ParseError: ``normalize`` is on and the norm underflows to zero.
        NotNormalized: the norm (after rescaling, if requested) deviates from 1.
    """
    amps = _as_complex_array(coeffs, 2, "coefficients")
    if not amps.any():
        raise ZeroState("all coefficients are zero")
    if normalize:
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if norm == np.inf:  # some |amp|^2 overflows: rescale by the largest real or imaginary part first
            amps = amps / abs(amps.view(float)).max()
            norm = np.linalg.norm(amps)
        if not norm > 0:  # every |amp|^2 underflows, so no rescaling reaches norm 1
            raise ParseError("coefficients are too small to normalize: their norm underflows to zero")
        amps = amps / norm
        amps.setflags(write=False)
    _check_unit(amps, "coefficients")
    state = object.__new__(BipartiteState)
    object.__setattr__(state, "amps", amps)
    return state


def apply_system(u: LocalUnitary, state: BipartiteState) -> BipartiteState:
    """Apply ``u`` to the system factor: amplitudes become ``u.mat @ amps``."""
    if u.dim != state.dim_s:
        raise DimensionMismatch(f"unitary dim {u.dim} != system dim {state.dim_s}")
    return BipartiteState(u.mat @ state.amps)


def apply_env(u: LocalUnitary, state: BipartiteState) -> BipartiteState:
    """Apply ``u`` to the environment factor: amplitudes become ``amps @ u.mat.T``."""
    if u.dim != state.dim_e:
        raise DimensionMismatch(f"unitary dim {u.dim} != environment dim {state.dim_e}")
    return BipartiteState(state.amps @ u.mat.T)


def equal_up_to_global_phase(
    a: BipartiteState, b: BipartiteState, tol: float = 1e-9
) -> tuple[bool, float]:
    """Decide whether ``a`` equals ``e^(i theta) b`` for some phase theta.

    Returns ``(equal, theta)`` where theta minimizes ``||a - e^(i theta) b||``
    and is reported in ``(-pi, pi]``.  The minimizer is the negated argument
    of the overlap ``<a|b>``; for orthogonal states theta defaults to 0.
    A ``tol`` that is not a real number raises ``ParseError``.
    """
    tol = _real(tol, "tol", ParseError)
    if a.amps.shape != b.amps.shape:
        raise DimensionMismatch(f"state shapes differ: {a.amps.shape} vs {b.amps.shape}")
    overlap = complex(np.vdot(a.amps, b.amps))
    theta = -float(np.angle(overlap)) if overlap != 0 else 0.0
    if theta <= -np.pi:
        theta += 2 * np.pi
    residual = float(np.linalg.norm(a.amps - np.exp(1j * theta) * b.amps))
    return residual <= tol, theta


def reduced_density_system(state: BipartiteState) -> np.ndarray:
    """Partial trace over the environment: ``rho_S = amps @ amps†``."""
    return state.amps @ state.amps.conj().T


def premeasure(state: BipartiteState, decomposition: "SchmidtDecomposition") -> TripartiteState:
    """Correlate a memory factor with the Schmidt branches of ``state``.

    Returns the state ``sum_k lambda_k |mu_k>|s_k>|e_k>`` over a memory
    factor of dimension rank + 1, with index 0 reserved for the pre-record
    memory state ``mu_0`` (that slice stays zero).
    """
    svecs = decomposition.system_vectors
    evecs = decomposition.env_vectors
    if svecs.shape[0] != state.dim_s or evecs.shape[0] != state.dim_e:
        raise DimensionMismatch(
            f"decomposition dims ({svecs.shape[0]}, {evecs.shape[0]}) do not match "
            f"state dims ({state.dim_s}, {state.dim_e})"
        )
    r = decomposition.rank
    amps = np.zeros((r + 1, state.dim_s, state.dim_e), dtype=complex)
    for k in range(r):
        amps[k + 1] = decomposition.coefficients[k] * np.outer(svecs[:, k], evecs[:, k])
    return TripartiteState(amps)


# ---------------------------------------------------------------------------
# File format: {"dim_s": n, "dim_e": m, "amps": [[[re, im], ...], ...]},
# row-major system-first, floats written with 17 significant digits.
# ---------------------------------------------------------------------------

def _cells(mat: np.ndarray) -> list:
    """The rows of ``mat`` as lists of ``[re, im]`` float cells: a C-ordered complex
    copy read as its float pairs, made into lists in one call."""
    return np.ascontiguousarray(mat, dtype=complex).view(float).reshape(*mat.shape, 2).tolist()


def _rows_json(mat: np.ndarray) -> str:
    """The rows of ``mat`` as a JSON list of ``[re, im]`` cells, floats at 17 digits."""
    return "[%s]" % ", ".join(
        "[%s]" % ", ".join(f"[{_fmt17(re)}, {_fmt17(im)}]" for re, im in row) for row in _cells(mat)
    )


def _cell(cell) -> complex:
    if type(cell) is not list or len(cell) != 2 or any(type(x) not in (int, float) for x in cell):
        raise ParseError(f"a cell must be [re, im], two numbers, got {cell!r}")
    return complex(*cell)


def _loads(text) -> object:
    """``json.loads(text)``; anything that is not a JSON document raises ``ParseError``."""
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:  # a ``JSONDecodeError`` is a ``ValueError``
        raise ParseError(f"invalid JSON: {exc}") from exc


def _rows_from_json(rows) -> np.ndarray:
    """Matrix from a JSON list of rows of ``[re, im]`` cells."""
    return np.array([[_cell(c) for c in row] for row in rows], dtype=complex)


def state_to_json(state: BipartiteState) -> str:
    amps = _rows_json(state.amps)
    return '{"dim_s": %d, "dim_e": %d, "amps": %s}' % (state.dim_s, state.dim_e, amps)


def state_from_json(text: str) -> BipartiteState:
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise ParseError("state document must be a JSON object")
    try:
        dim_s, dim_e, amps = obj["dim_s"], obj["dim_e"], obj["amps"]
    except KeyError as exc:
        raise ParseError(f"state object is missing key {exc}") from exc
    if any(type(d) is not int or d < 1 for d in (dim_s, dim_e)):
        raise ParseError("dim_s and dim_e must be positive integers")
    try:
        arr = _rows_from_json(amps)
    except (TypeError, IndexError, ValueError, OverflowError) as exc:  # an int cell past float range
        raise ParseError(f"amps must be a matrix of [re, im] pairs: {exc}") from exc
    if arr.ndim != 2 or arr.shape != (dim_s, dim_e):
        raise ParseError(f"amps shape {arr.shape} does not match dims ({dim_s}, {dim_e})")
    return make_state(arr)


def save_state(state: BipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state) + "\n")


def load_state(path) -> BipartiteState:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(fh.read())
