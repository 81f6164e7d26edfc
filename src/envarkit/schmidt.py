"""Schmidt decomposition of bipartite pure states.

The decomposition ``amps = sum_k lambda_k s_k e_k^T`` is computed from the
eigendecomposition of the system-side reduced density matrix, with env
vectors recovered as ``e_k = amps^T conj(s_k) / lambda_k``.  Branch indices
are 1-based everywhere in the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, ParseError, _real
from .states import BipartiteState, _check_orthonormal, _fmt17, _loads, _rows_from_json, _rows_json
from .states import _numeric_array, make_state, reduced_density_system

SCHMIDT_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Nonnegative coefficients with paired orthonormal system/env vectors.

    Coefficients are sorted descending, all above ``SCHMIDT_CUTOFF``, and
    square-sum to 1.  ``system_vectors`` and ``env_vectors`` hold one column
    per branch.
    """

    coefficients: np.ndarray
    system_vectors: np.ndarray
    env_vectors: np.ndarray

    def __post_init__(self) -> None:
        # converting complex values to float would drop their imaginary parts, with a warning
        if np.iscomplexobj(_numeric_array(self.coefficients, None, "coefficients")):
            raise ParseError("coefficients must be real numbers")
        lam = _numeric_array(self.coefficients, float, "coefficients")
        svecs = _numeric_array(self.system_vectors, complex, "system_vectors")
        # one block given as both sides is converted and checked once, and shared
        shared = self.env_vectors is self.system_vectors
        evecs = svecs if shared else _numeric_array(self.env_vectors, complex, "env_vectors")
        if lam.ndim != 1 or lam.size == 0:
            raise DimensionMismatch("coefficients must be a nonempty 1-d array")
        r = lam.size
        if svecs.ndim != 2 or evecs.ndim != 2 or svecs.shape[1] != r or evecs.shape[1] != r:
            raise DimensionMismatch("vector blocks must supply one column per coefficient")
        if (lam[1:] > lam[:-1]).any():
            raise ParseError("coefficients must be sorted descending")
        if not (lam > SCHMIDT_CUTOFF).all():
            raise ParseError(f"coefficients must exceed the zero cutoff {SCHMIDT_CUTOFF}")
        # add.reduce is what np.sum runs, so the same bits, without its dispatch
        if not abs(float(np.add.reduce(lam**2)) - 1.0) <= 1e-9:
            raise NotNormalized("squared coefficients must sum to 1 within 1e-9")
        _check_orthonormal(svecs, 1e-9, "system_vectors")
        if not shared:
            _check_orthonormal(evecs, 1e-9, "env_vectors")
        for name, arr in (("coefficients", lam), ("system_vectors", svecs), ("env_vectors", evecs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rank(self) -> int:
        return self.coefficients.size


def schmidt(state: BipartiteState) -> SchmidtDecomposition:
    """Compute the Schmidt form of a bipartite pure state.

    Eigenvalues of the reduced density matrix that sit within machine noise
    of zero are treated as exact zeros, so rank-deficient states come back
    with their true rank.  Each system vector is phased so its first
    largest-magnitude component is real nonnegative, with the compensating
    phase pushed into the paired environment vector; output is therefore
    deterministic up to eigensolver freedom inside degenerate blocks.
    Each column's phase factor is the scalar ``conj(p) / abs(p)`` of its
    pivot ``p``: numpy's array ``abs`` can differ from it in the last bit.
    """
    rho = reduced_density_system(state)
    evals, evecs = np.linalg.eigh(rho)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    noise_floor = rho.shape[0] * _EPS * max(float(evals[0]), 0.0)
    keep = evals > max(SCHMIDT_CUTOFF**2, noise_floor)
    lam = np.sqrt(evals[keep])
    svecs = evecs[:, keep]  # boolean indexing copies
    # argmax takes each column's first largest-magnitude entry as its pivot
    pivots = svecs[np.abs(svecs).argmax(axis=0), np.arange(lam.size)]
    svecs *= [np.conj(p) / abs(p) for p in pivots]
    evecs_out = state.amps.T @ svecs.conj() / lam[np.newaxis, :]
    return SchmidtDecomposition(lam, svecs, evecs_out)


def reconstruct(decomposition: SchmidtDecomposition) -> BipartiteState:
    """Rebuild the state ``sum_k lambda_k s_k e_k^T`` from a decomposition."""
    amps = (decomposition.system_vectors * decomposition.coefficients) @ decomposition.env_vectors.T
    return make_state(amps, normalize=True)


def is_even(decomposition: SchmidtDecomposition, tol: float = DEGENERACY_TOL) -> bool:
    """True when the Schmidt coefficients form one ``degeneracy_blocks`` block.

    That is, when every coefficient lies within ``tol`` of the largest.  A
    rank-1 spectrum is one block, so it counts as even for any ``tol``, a
    negative or NaN one included.
    """
    return len(degeneracy_blocks(decomposition, tol)) == 1


def degeneracy_blocks(
    decomposition: SchmidtDecomposition, tol: float = DEGENERACY_TOL
) -> list[list[int]]:
    """Partition branch indices 1..rank into maximal equal-coefficient blocks.

    Within a block all coefficients lie within ``tol`` of the block's leading
    value, so members agree pairwise; blocks come out ordered by descending
    coefficient.  ``tol`` is read as a real number (``errors._real``), so
    anything else raises ``ParseError``.
    """
    tol = _real(tol, "tol", ParseError)
    lam = decomposition.coefficients
    blocks: list[list[int]] = []
    current = [1]
    anchor = lam[0]
    for k in range(2, lam.size + 1):
        if anchor - lam[k - 1] <= tol:
            current.append(k)
        else:
            blocks.append(current)
            current = [k]
            anchor = lam[k - 1]
    blocks.append(current)
    return blocks


# ---------------------------------------------------------------------------
# Serialization: {"lambda": [...], "s_vecs": [...], "e_vecs": [...]} with one
# row per branch vector and the same [re, im] cell convention as state files.
# ---------------------------------------------------------------------------

def decomposition_to_json(decomposition: SchmidtDecomposition) -> str:
    lam = ", ".join(_fmt17(v) for v in decomposition.coefficients)
    return '{"lambda": [%s], "s_vecs": %s, "e_vecs": %s}' % (
        lam,
        _rows_json(decomposition.system_vectors.T),
        _rows_json(decomposition.env_vectors.T),
    )


def decomposition_from_json(text: str) -> SchmidtDecomposition:
    obj = _loads(text)
    try:
        lam = np.array(obj["lambda"], dtype=float)
        svecs = _rows_from_json(obj["s_vecs"]).T
        evecs = _rows_from_json(obj["e_vecs"]).T
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed decomposition document: {exc}") from exc
    return SchmidtDecomposition(lam, svecs, evecs)
