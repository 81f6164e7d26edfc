"""Write the golden corpus's state files with numpy alone.

    python tests/golden/make_states.py

Every state is built here from seeded numpy draws and written in the state
file format (``{"dim_s", "dim_e", "amps": [[[re, im], ...], ...]}``, floats
with 17 significant digits), so the corpus does not depend on the package
it checks.  Two files are malformed on purpose: one is not JSON and one is
not normalized.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

STATES = Path(__file__).parent / "states"


def haar(n: int, seed: int) -> np.ndarray:
    """Haar unitary: QR of a seeded complex Ginibre matrix, R's diagonal made positive."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rotated(lams, dim_e: int, seed: int) -> np.ndarray:
    """Unit state with Schmidt coefficients proportional to ``lams`` in Haar bases."""
    lams = np.asarray(lams, dtype=float)
    svecs = haar(lams.size, seed)
    evecs = haar(dim_e, seed + 1)[:, : lams.size]
    amps = (svecs * lams) @ evecs.T
    return amps / np.linalg.norm(amps)


def diagonal(lams, dim_e: int | None = None) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    amps = np.zeros((lams.size, dim_e or lams.size), dtype=complex)
    amps[range(lams.size), range(lams.size)] = lams / np.linalg.norm(lams)
    return amps


def state_text(amps: np.ndarray) -> str:
    cells = ", ".join(
        "[%s]" % ", ".join(f"[{c.real:.17g}, {c.imag:.17g}]" for c in row) for row in amps
    )
    return '{"dim_s": %d, "dim_e": %d, "amps": [%s]}\n' % (*amps.shape, cells)


def corpus() -> dict[str, str]:
    states = {
        "bell": diagonal([1.0, 1.0]),
        "uneven": diagonal([(1 / 3) ** 0.5, (2 / 3) ** 0.5]),
        "even4": diagonal([1.0] * 4),
        "product": diagonal([1.0, 0.0]),
        # rank 2 in a rotated 3 x 3 product basis
        "rank-deficient": rotated([0.8, 0.6, 0.0], 3, seed=11),
        # rank 3 with dim_e = 5 > rank
        "haar-wide": rotated([0.7, 0.5, 0.3], 5, seed=21),
        # two degenerate blocks, (a, a, b, b)
        "degenerate-blocks": rotated([0.6, 0.6, 0.35, 0.35], 5, seed=31),
        "even3-rotated": rotated([1.0, 1.0, 1.0], 3, seed=41),
        # lambda proportional to (1, 0.7, lambda_min) with lambda_min far above
        # SCHMIDT_CUTOFF = 1e-12; see ROADMAP item 2
        "near-cutoff-a": rotated([1.0, 0.7, 3e-9], 4, seed=51),
        "near-cutoff-b": rotated([1.0, 0.7, 2e-6], 4, seed=61),
        # lambda_k proportional to 1 - 0.9e-9 k: adjacent coefficients lie
        # 3.2e-10 apart, within DEGENERACY_TOL, but the gaps chain past it, so
        # the degeneracy blocks are [1-4] and [5-8]
        "staircase8": diagonal(1 - 0.9e-9 * np.arange(8)),
    }
    texts = {name: state_text(amps) for name, amps in states.items()}
    texts["malformed"] = '{"dim_s": 2, "dim_e": 2, "amps": [[[1, 0]\n'
    texts["unnormalized"] = state_text(np.array([[1.0, 1.0]], dtype=complex))
    return texts


def main() -> None:
    STATES.mkdir(exist_ok=True)
    for name, text in corpus().items():
        (STATES / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
