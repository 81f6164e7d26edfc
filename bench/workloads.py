"""Seeded inputs, timed ops and output checks for the four workloads.

Every op calls the program through module attributes looked up at call
time (``fg.born_via_counting``, ``cli.main``), so spans installed by
``tracing.Tracer`` see the calls.  An op returns an ``OpResult``: the time
spent inside the program, how many ops the call stands for, whether every
output check passed, and the output bytes that feed the run's digest.

Checks that call the program again (``born_value`` samples, recomputed
derivations) run on an op's first execution only, which is always untraced;
every later execution must reproduce the first output exactly.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import envarkit as ek

fg = importlib.import_module("envarkit.finegrain")
dv = importlib.import_module("envarkit.derivation")
sch = importlib.import_module("envarkit.schmidt")
gl = importlib.import_module("envarkit.gleason")
cli = importlib.import_module("envarkit.cli")

WORKLOADS = ("grain-ladder", "counting-sweep", "cli-corpus", "gleason-audit")
MERGE_RULES = ("PAIRING", "ENV_LOCALITY", "SYS_LOCALITY", "STATE_FUNCTION")

# Stops at M = 32: a 1.5-5 s op at M = 48-64 gets too few repetitions in a run
# to time steadily on a host whose speed swings by half within seconds.
GRAIN_LADDER = (8, 12, 16, 24, 32)
LADDER_WEIGHTS = 4          # born_via_counting weight vectors per ladder op
SWEEP_MAX_GRAIN = 32        # acceptance sweep: every composition with M <= 32, n <= 4
SWEEP_MAX_PARTS = 4
SWEEP_SAMPLE = 2048         # seeded subset of the 41,448 sweep vectors, one pass
AUDIT_DIMS = range(3, 17)
AUDIT_CALLS = 4             # audit calls per (frame kind, dim) in one pass
AUDIT_TRIALS = 16           # bases per audit call; one basis is one op
POWER_ALPHAS = (1.0, 1.5, 3.0, 4.0)
NEAR_CUTOFF_LAMBDA = (1e-11, 1e-7)  # log-uniform range of the smallest coefficient

LAMBDA_TOL = 1e-9           # lambda^2 against the prescribed spectrum
ORACLE_AGREE_TOL = 1e-7     # verdict vs oracle residual, as in the acceptance suite
BORN_TOL = 1e-9             # born_value spread inside one merged class

# Whole passes of the op list that one traced run measures.
TRACE_PASSES = {"grain-ladder": 4, "counting-sweep": 2, "cli-corpus": 4, "gleason-audit": 8}


@dataclass(frozen=True)
class OpResult:
    busy: float         # seconds inside the program
    count: int          # ops this call stands for
    ok: bool
    blob: bytes         # output bytes for the run digest
    near_cutoff: bool = False  # input built to expose the small-lambda Schmidt defect


def warm_layers() -> None:
    """One tiny call through every layer, so lazy numpy and import work is done."""
    bell = ek.make_state(np.eye(2, dtype=complex) / np.sqrt(2))
    dec = ek.schmidt(bell)
    ek.check_envariance(bell, ek.swap_transform(1, 2, dec.system_vectors))
    ek.saturate(ek.generate_terms(bell, [(1, 2)]), ek.RuleSet())
    ek.audit(ek.QuadraticFrame(np.eye(3) / 3), 3, 1, 0)
    cli.build_parser()


def fill_cache(workload: str) -> None:
    """Workload set-up done by the program: counting-sweep derives every grain once."""
    if workload == "counting-sweep":
        for m_total in range(1, SWEEP_MAX_GRAIN + 1):
            fg.equal_branch_derivation(m_total)


# ---------------------------------------------------------------------------
# Input generation (numpy only, independent of the program)
# ---------------------------------------------------------------------------

def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rotated(rng, lam, dim_s: int, dim_e: int) -> np.ndarray:
    """Amplitudes with Schmidt coefficients ``lam`` in Haar-random bases."""
    lam = np.asarray(lam, dtype=float)
    return (_haar(rng, dim_s)[:, : lam.size] * lam) @ _haar(rng, dim_e)[:, : lam.size].T


def _state_json(amps: np.ndarray) -> str:
    rows = ", ".join(
        "[" + ", ".join(f"[{c.real:.17g}, {c.imag:.17g}]" for c in row) + "]" for row in amps
    )
    return '{"dim_s": %d, "dim_e": %d, "amps": [%s]}\n' % (amps.shape[0], amps.shape[1], rows)


def _composition(rng, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.choice(np.arange(1, total), parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *map(int, cuts), total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _sweep_vectors() -> list[tuple[int, ...]]:
    out = []
    for m_total in range(1, SWEEP_MAX_GRAIN + 1):
        for n in range(1, min(SWEEP_MAX_PARTS, m_total) + 1):
            for cuts in itertools.combinations(range(1, m_total), n - 1):
                bounds = (0, *cuts, m_total)
                out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def _exact(probs, parts, m_total) -> bool:
    return list(probs) == [Fraction(m, m_total) for m in parts]


def _lambda_ok(coefficients, expected_sq) -> bool:
    got = sorted((float(v) ** 2 for v in coefficients), reverse=True)
    want = sorted((float(v) for v in expected_sq), reverse=True)
    return len(got) == len(want) and max(abs(a - b) for a, b in zip(got, want)) <= LAMBDA_TOL


def _classes_sound(rng, store, base_state, decomposition) -> bool:
    """``born_value`` agrees inside a seeded sample of merged classes."""
    classes = [c for c in store.classes() if len(c) > 1]
    if not classes:
        return True
    for ci in rng.choice(len(classes), min(3, len(classes)), replace=False):
        cls = classes[int(ci)]
        pick = rng.choice(len(cls), min(4, len(cls)), replace=False)
        values = [dv.born_value(cls[int(t)], base_state, decomposition) for t in pick]
        if max(values) - min(values) > BORN_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# grain-ladder: cold equal-branch derivations on a ladder of grains
# ---------------------------------------------------------------------------

def _ladder_op(m_total: int, weights, check_seed: int):
    checked = []

    def op() -> OpResult:
        fg.equal_branch_derivation.cache_clear()
        t0 = perf_counter()
        term_set, store, probs = fg.equal_branch_derivation(m_total)
        counted = [fg.born_via_counting(w) for w in weights]
        busy = perf_counter() - t0
        ok = probs == (Fraction(1, m_total),) * m_total and all(
            _exact(p, w.numerators, m_total) for w, p in zip(weights, counted)
        )
        if not checked:
            rng = np.random.default_rng(check_seed)
            checked.append(_classes_sound(rng, store, term_set.base_state, term_set.decomposition))
        blob = f"{m_total}:{len(store.trace)}:{[[str(x) for x in p] for p in counted]}\n"
        return OpResult(busy, 1, ok and checked[0], blob.encode())

    return op


def _build_grain_ladder(rng, workdir):
    ops = []
    for m_total in rng.permutation(GRAIN_LADDER):
        m_total = int(m_total)
        weights = [
            ek.RationalWeights(_composition(rng, m_total, int(rng.integers(1, 5))), m_total)
            for _ in range(LADDER_WEIGHTS)
        ]
        ops.append(_ladder_op(m_total, weights, int(rng.integers(2**31))))
    return ops, {}


# ---------------------------------------------------------------------------
# counting-sweep: per-vector counting over the acceptance sweep
# ---------------------------------------------------------------------------

def _sweep_op(parts: tuple[int, ...]):
    m_total = sum(parts)
    weights = ek.RationalWeights(parts, m_total)
    expected_sq = [Fraction(m, m_total) for m in parts]

    def op() -> OpResult:
        t0 = perf_counter()
        probs = fg.born_via_counting(weights)
        fine = fg.fine_grain(weights, len(parts))
        lam = sch.schmidt(fine.state).coefficients
        busy = perf_counter() - t0
        ok = _exact(probs, parts, m_total) and _lambda_ok(lam, expected_sq)
        blob = f"{parts}:{[str(p) for p in probs]}:{fine.branch_map}\n"
        return OpResult(busy, 1, ok, blob.encode())

    return op


def _build_counting_sweep(rng, workdir):
    vectors = _sweep_vectors()
    pick = rng.choice(len(vectors), SWEEP_SAMPLE, replace=False)
    return [_sweep_op(vectors[int(i)]) for i in pick], {}


# ---------------------------------------------------------------------------
# cli-corpus: in-process cli.main over seeded state files
# ---------------------------------------------------------------------------

# Per pass: (kind, count, Schmidt ranks cycled through).  The rank mix is
# fixed so that a pass costs about the same for every seed; one item in
# eight is a near-cutoff state.
CLI_MIX = (
    ("schmidt", 32, (2, 3, 4, 5)),
    ("schmidt-near-cutoff", 16, (3,)),
    ("swap-positive", 16, (2, 3, 4, 5)),
    ("swap-negative", 16, (3, 4, 5)),  # a negative swap needs two coefficient blocks
    ("phase", 16, (2, 3, 4, 5)),
    ("derive-ablate", 16, (2, 3, 4)),
    ("derive-disable", 16, (2, 3, 4)),
)


def _spectrum(rng, rank: int) -> tuple[np.ndarray, list[list[int]]]:
    """Descending coefficients with a forced degenerate block and gaps >= 0.1."""
    sizes = [2]
    while sum(sizes) < rank:
        sizes.append(int(rng.integers(1, rank - sum(sizes) + 1)))
    rng.shuffle(sizes)
    levels = np.cumsum(rng.uniform(0.1, 0.4, len(sizes)))[::-1]
    lam = np.concatenate([np.full(s, v) for s, v in zip(sizes, levels)])
    lam /= np.linalg.norm(lam)
    blocks, start = [], 1
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    return lam, blocks


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(argv)
        busy = perf_counter() - t0
    return code, out.getvalue(), busy


def _cli_op(argv, check, near_cutoff=False):
    first = []

    def op() -> OpResult:
        code, text, busy = _run_cli(argv)
        if not first:
            first.append((code, text, check(code, text)))
        ok = first[0][2] and (code, text) == first[0][:2]
        return OpResult(busy, 1, ok, text.encode(), near_cutoff)

    return op


def _report(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _check_schmidt(lam):
    def check(code, text):
        rep = _report(text)
        return code == 0 and rep is not None and rep["rank"] == lam.size and _lambda_ok(
            rep["lambda"], lam**2
        )

    return check


def _check_envariance(expected: bool):
    def check(code, text):
        rep = _report(text)
        return (
            rep is not None
            and code == (0 if expected else 1)
            and rep["envariant"] is expected
            and (rep["oracle_residual"] <= ORACLE_AGREE_TOL) is expected
        )

    return check


def _check_derive(path, rank: int, disabled, ablate: bool, check_seed: int):
    def check(code, text):
        rep = _report(text)
        if rep is None:
            return False
        if disabled:
            ok = code == 1 and rep["probabilities"] is None
        else:
            ok = code == 0 and rep["probabilities"] == [str(Fraction(1, rank))] * rank
        if ablate:
            ok = ok and [a["s1_equals_s2"] for a in rep["ablations"]] == [False] * 4
        state = ek.load_state(path)
        rules = ek.RuleSet().without(disabled) if disabled else ek.RuleSet()
        term_set = ek.generate_terms(state, [(k, k + 1) for k in range(1, rank)])
        store = ek.saturate(term_set, rules)
        same = [[str(t) for t in cls] for cls in store.classes()] == rep["classes"]
        rng = np.random.default_rng(check_seed)
        return ok and same and _classes_sound(rng, store, state, term_set.decomposition)

    return check


def _build_cli_corpus(rng, workdir):
    workdir = Path(workdir)
    registry: dict[int, int] = {}
    ops = []
    n = 0
    for kind, count, ranks in CLI_MIX:
        for i in range(count):
            near = kind == "schmidt-near-cutoff"
            rank = ranks[i % len(ranks)]
            if kind.startswith("derive"):
                lam, blocks = np.full(rank, rank**-0.5), [list(range(1, rank + 1))]
            elif near:
                lam_min = 10 ** rng.uniform(*np.log10(NEAR_CUTOFF_LAMBDA))
                lam = np.array([rng.uniform(0.75, 0.85), rng.uniform(0.45, 0.55), lam_min])
                lam /= np.linalg.norm(lam)
            else:
                lam, blocks = _spectrum(rng, rank)
            dim_s = rank + (i // len(ranks)) % 2
            dim_e = dim_s + 1 + (i // (2 * len(ranks))) % 2
            amps = _rotated(rng, lam, dim_s, dim_e)
            path = workdir / f"state{n:03d}.json"
            n += 1
            path.write_text(_state_json(amps), encoding="utf-8")
            registry[hash(amps.tobytes())] = rank
            if kind.startswith("schmidt"):
                ops.append(_cli_op(["schmidt", str(path)], _check_schmidt(lam), near))
            elif kind.startswith("swap"):
                inside = [b for b in blocks if len(b) > 1]
                if kind == "swap-positive":
                    i_, j_ = rng.choice(inside[int(rng.integers(len(inside)))], 2, replace=False)
                else:
                    b1, b2 = rng.choice(len(blocks), 2, replace=False)
                    i_, j_ = rng.choice(blocks[b1]), rng.choice(blocks[b2])
                spec = f"swap:{int(i_)},{int(j_)}"
                ops.append(_cli_op(["envariance", str(path), spec],
                                   _check_envariance(kind == "swap-positive")))
            elif kind == "phase":
                betas = ",".join(f"{b:.6f}" for b in rng.uniform(-np.pi, np.pi, rank))
                ops.append(_cli_op(["envariance", str(path), f"phase:{betas}"],
                                   _check_envariance(True)))
            else:
                ablate = kind == "derive-ablate"
                disabled = None if ablate else MERGE_RULES[i % len(MERGE_RULES)]
                argv = ["derive", str(path)] + (["--ablate"] if ablate else ["--disable", disabled])
                check = _check_derive(path, rank, disabled, ablate, int(rng.integers(2**31)))
                ops.append(_cli_op(argv, check))
    order = rng.permutation(len(ops))
    return [ops[int(i)] for i in order], registry


# ---------------------------------------------------------------------------
# gleason-audit: frame-function audits, one basis per op
# ---------------------------------------------------------------------------

def _audit_op(frame, dim: int, seed: int, expected: str):
    def op() -> OpResult:
        t0 = perf_counter()
        report = gl.audit(frame, dim, AUDIT_TRIALS, seed)
        busy = perf_counter() - t0
        blob = json.dumps(report.as_dict(), sort_keys=True) + "\n"
        return OpResult(busy, AUDIT_TRIALS, report.verdict == expected, blob.encode())

    return op


def _build_gleason_audit(rng, workdir):
    ops = []
    for dim in AUDIT_DIMS:
        for _ in range(AUDIT_CALLS):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g @ g.conj().T
            ops.append(_audit_op(ek.QuadraticFrame(rho / np.trace(rho).real), dim,
                                 int(rng.integers(2**31)), "CONSISTENT"))
            w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            alpha = float(rng.choice(POWER_ALPHAS))
            ops.append(_audit_op(ek.PowerOverlapFrame(w / np.linalg.norm(w), alpha), dim,
                                 int(rng.integers(2**31)), "VIOLATION"))
    order = rng.permutation(len(ops))
    return [ops[int(i)] for i in order], {}


_BUILDERS = {
    "grain-ladder": _build_grain_ladder,
    "counting-sweep": _build_counting_sweep,
    "cli-corpus": _build_cli_corpus,
    "gleason-audit": _build_gleason_audit,
}


def build(workload: str, seed: int, workdir) -> tuple[list, dict[int, int]]:
    """One pass of ops for ``workload`` and the prescribed-rank registry.

    The registry maps the hash of each generated state's amplitude bytes to
    its prescribed Schmidt rank; the tracer counts ``schmidt`` calls on those
    states that come back with another rank.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, workdir)
