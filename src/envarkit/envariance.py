"""Envariance: system-side unitaries undoable by acting on the environment alone.

A bipartite state is envariant under a system unitary ``u_s`` when some
environment unitary ``u_e`` (the *counter*) restores the original state:
``apply_env(u_e, apply_system(u_s, psi)) == psi``.  This module builds the
canonical envariant generators (Schmidt-basis phase shifts and swaps),
decides envariance constructively through the Schmidt form, and provides an
independent closed-form oracle based on orthogonal-Procrustes alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NonOrthonormalBasis, ParseError
from .errors import _integer, _real, _sequence, _shown
from .schmidt import DEGENERACY_TOL, SCHMIDT_CUTOFF, SchmidtDecomposition, degeneracy_blocks, schmidt
from .states import (
    _BASIS_TOL,
    BipartiteState,
    LocalUnitary,
    _check_orthonormal,
    _numeric_array,
    apply_env,
    apply_system,
    equal_up_to_global_phase,
)

ENVAR_TOL = 1e-9


@dataclass(frozen=True)
class EnvarianceVerdict:
    """Decision result: the counter unitary when one exists, and the residual.

    ``residual`` is ``||apply_env(counter, apply_system(u_s, psi)) - psi||``
    when a counter was constructed, otherwise the best residual any
    environment unitary can achieve (from the Procrustes oracle).
    """

    envariant: bool
    counter: LocalUnitary | None
    residual: float


def _checked_basis(basis) -> np.ndarray:
    vecs = _numeric_array(basis, complex, "basis")
    if vecs.ndim != 2 or vecs.shape[1] == 0:
        raise NonOrthonormalBasis(f"basis must be a nonempty 2-d column block, got shape {vecs.shape}")
    _check_orthonormal(vecs, _BASIS_TOL, "basis")
    return vecs


def _check_indices(indices: Iterable[int], n: int) -> None:
    """Refuse, with ``IndexOutOfRange``, an index that is not an int (as
    ``operator.index`` reads one) or lies outside 1..n."""
    for idx in indices:
        if not 1 <= _integer(idx, "index", IndexOutOfRange) <= n:
            raise IndexOutOfRange(f"index {_shown(idx)} outside 1..{n}")


def _check_swap(i: int, j: int, n: int) -> None:
    """Refuse, with ``IndexOutOfRange``, swap indices that are not ints or lie
    outside 1..n, and then equal ones."""
    _check_indices((i, j), n)
    if i == j:
        raise IndexOutOfRange("swap indices must differ")


def _check_phase(indices: Sequence[int], betas: Sequence[float], n: int) -> tuple[tuple, tuple]:
    """The indices and phases of a phase tag on an n-vector basis, each as a tuple.

    Indices or phases that are not a sequence, and a phase that is not a
    finite real number, raise ``ParseError``; an index that is not an int,
    lies outside 1..n or is repeated raises ``IndexOutOfRange``.
    """
    indices = _sequence(indices, "phase indices", ParseError)
    betas = _sequence(betas, "phases", ParseError)
    if len(indices) != len(betas):
        raise DimensionMismatch(f"{len(indices)} indices but {len(betas)} phases")
    _check_indices(indices, n)
    if len(set(map(int, indices))) != len(indices):  # each index reads as an int by now
        raise IndexOutOfRange("phase indices must be distinct")
    if not all(isfinite(_real(beta, "phase", ParseError)) for beta in betas):
        raise ParseError("phases must be finite (no NaN/Inf entries)")
    return indices, betas


def phase_transform(
    indices: Sequence[int], betas: Sequence[float], basis
) -> LocalUnitary:
    """Unitary applying ``e^(i beta_j)`` to basis vector ``indices[j]`` (1-based).

    Identity on the orthogonal complement of the selected vectors.
    """
    vecs = _checked_basis(basis)
    indices, betas = _check_phase(indices, betas, vecs.shape[1])
    mat = np.eye(vecs.shape[0], dtype=complex)
    for idx, beta in zip(indices, betas):
        v = vecs[:, idx - 1]
        mat += (np.exp(1j * beta) - 1.0) * np.outer(v, v.conj())
    return LocalUnitary(mat)


def swap_transform(i: int, j: int, basis) -> LocalUnitary:
    """Self-inverse unitary exchanging basis vectors ``i`` and ``j`` (1-based)."""
    vecs = _checked_basis(basis)
    _check_swap(i, j, vecs.shape[1])
    vi, vj = vecs[:, i - 1], vecs[:, j - 1]
    mat = np.eye(vecs.shape[0], dtype=complex)
    mat -= np.outer(vi, vi.conj()) + np.outer(vj, vj.conj())
    mat += np.outer(vi, vj.conj()) + np.outer(vj, vi.conj())
    return LocalUnitary(mat)


def _polar_unitary(mat: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def check_envariance(
    state: BipartiteState,
    u_s: LocalUnitary,
    *,
    tol: float = ENVAR_TOL,
    up_to_phase: bool = False,
    decomposition: SchmidtDecomposition | None = None,
) -> EnvarianceVerdict:
    """Decide envariance of ``state`` under ``u_s`` and construct the counter.

    With Schmidt form ``amps = S diag(lam) E^T``, let ``a = S† u_s S``.
    The state is envariant iff ``u_s`` keeps the Schmidt support invariant
    and ``a`` is block-diagonal over the coefficient degeneracy blocks.  The
    counter then acts as the entrywise conjugate of ``a`` on the environment
    Schmidt vectors (so phase shifts get negated phases and real swaps get
    the matching environment swap) and as identity outside the support.

    Equality is strict by default; ``up_to_phase=True`` scores the residual
    modulo a global phase instead.  ``tol`` bounds the off-block entries of
    ``a``, the support leak and the restored residual.  A negative verdict
    without a counter (a support leak or an off-block entry above ``tol``)
    reports the oracle's residual, which can fall below ``tol``.  One that
    fails only on the restored residual, a same-block swap whose restored
    state lies farther than ``tol`` from ``state``, returns its counter and
    that residual, which the oracle's can only undercut.
    ``decomposition``, when given, must be ``schmidt(state)``; it saves
    computing the Schmidt form again.

    A swap of two branches in different blocks is never envariant, and
    ``generate_terms`` refuses it with ``UnevenCoefficients``, even when
    the two coefficients differ by less than ``DEGENERACY_TOL``.  A swap
    inside one block is envariant when the restored residual is within
    ``tol``; ``generate_terms`` accepts it either way, and the engine
    derives nothing from one whose restored state lies past its own
    ``STATE_EQ_TOL``.
    """
    tol = _real(tol, "tol", ParseError)
    if u_s.dim != state.dim_s:
        raise DimensionMismatch(f"unitary dim {u_s.dim} != system dim {state.dim_s}")
    dec = decomposition if decomposition is not None else schmidt(state)
    svecs, evecs, lam = dec.system_vectors, dec.env_vectors, dec.coefficients
    r = dec.rank
    a = svecs.conj().T @ u_s.mat @ svecs
    support_leak = float(np.linalg.norm(u_s.mat @ svecs - svecs @ a))
    blocks = degeneracy_blocks(dec, DEGENERACY_TOL)
    label = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])  # each branch's block
    block_mask = label[:, None] == label
    off_block = float(np.max(np.abs(a[~block_mask]))) if not block_mask.all() else 0.0

    if support_leak > tol or off_block > tol:
        _, best = oracle_best_counter(state, u_s)
        return EnvarianceVerdict(False, None, best)

    b = np.zeros((r, r), dtype=complex)
    for block in blocks:
        idx = np.asarray(block) - 1
        b[np.ix_(idx, idx)] = _polar_unitary(np.conj(a[np.ix_(idx, idx)]))
    proj = evecs @ evecs.conj().T
    counter = LocalUnitary(evecs @ b @ evecs.conj().T + np.eye(state.dim_e) - proj)
    restored = apply_env(counter, apply_system(u_s, state))
    if up_to_phase:
        _, theta = equal_up_to_global_phase(restored, state)
        residual = float(np.linalg.norm(restored.amps - np.exp(1j * theta) * state.amps))
    else:
        residual = float(np.linalg.norm(restored.amps - state.amps))
    return EnvarianceVerdict(residual <= tol, counter, residual)


def oracle_best_counter(
    state: BipartiteState, u_s: LocalUnitary
) -> tuple[LocalUnitary, float]:
    """Best environment unitary aligning ``apply_system(u_s, state)`` with ``state``.

    Closed-form Procrustes solution: with ``C`` the amplitudes and
    ``B = u_s.mat @ C``, the overlap to maximize is ``Re tr(C^T conj(B) V)``,
    so the optimum ``V`` is the unitary polar factor of ``C^T conj(B)``,
    completed by identity on the null space when input and output null
    spaces coincide (they always do for envariant inputs).
    """
    if u_s.dim != state.dim_s:
        raise DimensionMismatch(f"unitary dim {u_s.dim} != system dim {state.dim_s}")
    c = state.amps
    b = u_s.mat @ c
    target = c.T @ np.conj(b)
    x, sig, yh = np.linalg.svd(target)
    r = int(np.sum(sig > SCHMIDT_CUTOFF))
    n = state.dim_e
    v = x @ yh
    if r < n:
        xr = x[:, :r]
        yr = yh[:r, :].conj().T
        p_out = xr @ xr.conj().T
        p_in = yr @ yr.conj().T
        if np.max(np.abs(p_out - p_in)) <= 1e-8:
            v = _polar_unitary(xr @ yr.conj().T + np.eye(n) - p_out)
    counter = LocalUnitary(v)
    aligned = apply_env(counter, apply_system(u_s, state))
    residual = float(np.linalg.norm(aligned.amps - state.amps))
    return counter, residual
