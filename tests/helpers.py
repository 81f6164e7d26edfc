"""Seeded generators shared by the test modules."""

from __future__ import annotations

import numpy as np

from envarkit import BipartiteState, LocalUnitary, SchmidtDecomposition, degeneracy_blocks
from envarkit import make_state, random_basis


def random_state(dim_s: int, dim_e: int, seed: int) -> BipartiteState:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim_s, dim_e)) + 1j * rng.standard_normal((dim_s, dim_e))
    return make_state(z, normalize=True)


def random_unitary(dim: int, seed: int) -> LocalUnitary:
    return LocalUnitary(random_basis(dim, seed).vectors)


def bell_state() -> BipartiteState:
    r = 2**-0.5
    return make_state([[r, 0.0], [0.0, r]])


def uneven_state() -> BipartiteState:
    return make_state([[(1 / 3) ** 0.5, 0.0], [0.0, (2 / 3) ** 0.5]])


def spectrum_state(lams, seed_s: int, seed_e: int, dim_e: int | None = None) -> BipartiteState:
    """State with prescribed Schmidt coefficients and Haar-random bases."""
    lams = np.asarray(lams, dtype=float)
    dim_s = lams.size
    dim_e = dim_e or dim_s
    svecs = random_basis(dim_s, seed_s).vectors
    evecs = random_basis(dim_e, seed_e).vectors[:, :dim_s]
    return make_state((svecs * lams) @ evecs.T, normalize=True)


def block_swap_pairs(dec: SchmidtDecomposition) -> list[tuple[int, int]]:
    """Ordered branch pairs ``(i, j)``, ``i != j``, inside one ``degeneracy_blocks`` block.

    These are the swaps ``generate_terms`` accepts, in ``(i, j)`` order.
    """
    block_of = {k: n for n, block in enumerate(degeneracy_blocks(dec)) for k in block}
    return [(i, j) for i in block_of for j in block_of if i != j and block_of[i] == block_of[j]]
