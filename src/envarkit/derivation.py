"""Rule-based equality engine over symbolic probability terms.

Probabilities are uninterpreted symbols ``p(X:k; expr)`` naming the chance
of Schmidt branch ``k`` on side ``X`` (system or environment) when the pair
is in the state described by ``expr``, a transcript of swap/phase
transforms applied to a named base state.  The engine never evaluates a
probability; it only merges terms that the enabled assumption rules declare
equal, so each probabilistic ingredient of the equal-likelihood argument is
an explicit, switchable rule:

* ``pairing`` - branch partners in the Schmidt expansion are equally likely.
* ``env_locality`` - environment-branch probabilities are untouched by
  system-side transforms (and ``sys_locality`` symmetrically).
* ``state_function`` - probabilities depend on the composite state vector
  only, so transcripts replaying to the same state carry the same terms.
* ``normalization`` - branch probabilities of one state sum to 1; this is
  the extra step that turns an all-equal class into the number ``1/d``.

``saturate`` works in the base state's Schmidt frame, where the swap
argument lives.  With ``psi = S diag(lambda) E^T``, every tag permutes or
rephases columns of ``S`` or ``E`` and is the identity outside them, so
each expr's state is exactly ``S m E^T``, with ``m`` the r x r matrix
``diag(lambda)`` whose rows (system tags) and columns (environment tags)
are permuted and rephased.  Hence:

* each row of ``m`` has one nonzero entry, so ``PAIRING`` pairs ``S:k`` with
  the column of that entry, a lookup instead of a tolerance test;
* ``S`` and ``E`` have orthonormal columns, so ``||S (m_i - m_j) E^T||`` is
  ``||m_i - m_j||`` and ``STATE_FUNCTION`` compares r x r matrices.

The dense ``replay`` and ``born_value`` are the oracle that audits it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .envariance import _check_indices, _check_phase, _check_swap, phase_transform, swap_transform
from .errors import (
    IncompleteDerivation,
    IndexOutOfRange,
    ParseError,
    UnevenCoefficients,
    UnknownTerm,
)
from .schmidt import DEGENERACY_TOL, SchmidtDecomposition, schmidt
from .states import BipartiteState, apply_env, apply_system

STATE_EQ_TOL = 1e-9

RULE_NAMES = ("PAIRING", "ENV_LOCALITY", "SYS_LOCALITY", "STATE_FUNCTION", "NORMALIZATION")


# ---------------------------------------------------------------------------
# Symbolic terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSwap:
    i: int
    j: int

    def __str__(self) -> str:
        return f"swapS({self.i},{self.j})"


@dataclass(frozen=True)
class EnvSwap:
    i: int
    j: int

    def __str__(self) -> str:
        return f"swapE({self.i},{self.j})"


@dataclass(frozen=True)
class SystemPhase:
    indices: tuple[int, ...]
    betas: tuple[float, ...]

    def __str__(self) -> str:
        args = ",".join(f"{i}:{b:g}" for i, b in zip(self.indices, self.betas))
        return f"phaseS({args})"


@dataclass(frozen=True)
class EnvPhase:
    indices: tuple[int, ...]
    betas: tuple[float, ...]

    def __str__(self) -> str:
        args = ",".join(f"{i}:{b:g}" for i, b in zip(self.indices, self.betas))
        return f"phaseE({args})"


Transform = SystemSwap | EnvSwap | SystemPhase | EnvPhase

_SYSTEM_SIDE = (SystemSwap, SystemPhase)
_ENV_SIDE = (EnvSwap, EnvPhase)


@dataclass(frozen=True)
class StateExpr:
    """Transcript of transforms applied (in order) to a named base state."""

    transforms: tuple[Transform, ...] = ()
    base: str = "psi"

    def then(self, transform: Transform) -> "StateExpr":
        return replace(self, transforms=self.transforms + (transform,))

    def parent(self) -> "StateExpr":
        return replace(self, transforms=self.transforms[:-1])

    def __str__(self) -> str:
        parts = [str(t) for t in reversed(self.transforms)] + [self.base]
        return "·".join(parts)


@dataclass(frozen=True)
class ProbTerm:
    """Symbolic probability of Schmidt branch ``index`` on ``subsystem``."""

    subsystem: str  # "S" or "E"
    index: int      # 1-based branch label of the base state's Schmidt form
    state: StateExpr

    def __post_init__(self) -> None:
        if self.subsystem not in ("S", "E"):
            raise ParseError(f"subsystem must be 'S' or 'E', got {self.subsystem!r}")

    def __str__(self) -> str:
        return f"p({self.subsystem}:{self.index}; {self.state})"


@dataclass(frozen=True)
class RuleSet:
    """Switchable assumption rules; all merging rules default to on."""

    pairing: bool = True
    env_locality: bool = True
    sys_locality: bool = True
    state_function: bool = True
    normalization: bool = True

    def without(self, name: str) -> "RuleSet":
        field = name.lower()
        if field.upper() not in RULE_NAMES:
            raise ParseError(f"unknown rule {name!r}; expected one of {RULE_NAMES}")
        return replace(self, **{field: False})

    def enabled(self) -> tuple[str, ...]:
        return tuple(n for n in RULE_NAMES if getattr(self, n.lower()))


# ---------------------------------------------------------------------------
# Replay: transcripts to concrete states
# ---------------------------------------------------------------------------

def replay(
    expr: StateExpr,
    base_state: BipartiteState,
    decomposition: SchmidtDecomposition | None = None,
) -> BipartiteState:
    """Evaluate a transcript to a concrete state.

    Swap and phase tags are interpreted in the Schmidt bases of the *base*
    state, so branch labels keep their meaning along the whole transcript.
    """
    dec = decomposition if decomposition is not None else schmidt(base_state)
    state = base_state
    for t in expr.transforms:
        system = isinstance(t, _SYSTEM_SIDE)
        basis = dec.system_vectors if system else dec.env_vectors
        if isinstance(t, (SystemSwap, EnvSwap)):
            u = swap_transform(t.i, t.j, basis)
        elif isinstance(t, (SystemPhase, EnvPhase)):
            u = phase_transform(t.indices, t.betas, basis)
        else:
            raise TypeError(f"unknown transform tag {t!r}")
        state = apply_system(u, state) if system else apply_env(u, state)
    return state


def born_value(
    term: ProbTerm,
    base_state: BipartiteState,
    decomposition: SchmidtDecomposition | None = None,
) -> float:
    """Squared-amplitude probability of a term's branch in its replayed state.

    This is the independent oracle used to audit the engine: terms the
    engine merges must agree on this value, though the engine itself never
    consults it.
    """
    dec = decomposition if decomposition is not None else schmidt(base_state)
    if not 1 <= term.index <= dec.rank:
        raise IndexOutOfRange(f"branch {term.index} outside 1..{dec.rank}")
    amps = replay(term.state, base_state, dec).amps
    if term.subsystem == "S":
        vec = dec.system_vectors[:, term.index - 1]
        return float(np.linalg.norm(vec.conj() @ amps) ** 2)
    vec = dec.env_vectors[:, term.index - 1]
    return float(np.linalg.norm(amps @ vec.conj()) ** 2)


# ---------------------------------------------------------------------------
# Term population
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermSet:
    """Terms for one derivation run plus the context needed to replay them."""

    terms: tuple[ProbTerm, ...]
    exprs: tuple[StateExpr, ...]
    branches: tuple[int, ...]
    base_state: BipartiteState
    decomposition: SchmidtDecomposition

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def generate_terms(
    state: BipartiteState,
    swaps,
    decomposition: SchmidtDecomposition | None = None,
) -> TermSet:
    """Emit the probability terms the swap argument talks about.

    For each swap pair ``(i, j)`` the transcript visits the base state, the
    state after the system swap, and the state after the environment
    counterswap; terms cover both subsystems and every branch at each stop.
    Swapped branches must carry equal coefficients, otherwise swapping has
    no claim to preserve the probability bookkeeping.
    """
    dec = decomposition if decomposition is not None else schmidt(state)
    lam = dec.coefficients
    r = dec.rank
    exprs: list[StateExpr] = [StateExpr()]
    for i, j in swaps:
        _check_swap(i, j)
        for idx in (i, j):
            if not 1 <= idx <= r:
                raise IndexOutOfRange(f"swap index {idx} outside 1..{r}")
        gap = abs(float(lam[i - 1] - lam[j - 1]))
        if gap > DEGENERACY_TOL:
            raise UnevenCoefficients(
                f"branches {i} and {j} have coefficients differing by {gap:.3g}"
            )
        swapped = StateExpr().then(SystemSwap(i, j))
        exprs.append(swapped)
        exprs.append(swapped.then(EnvSwap(i, j)))
    branches = tuple(range(1, r + 1))
    terms = tuple(
        ProbTerm(sub, k, expr) for expr in exprs for sub in ("S", "E") for k in branches
    )
    return TermSet(terms, tuple(exprs), branches, state, dec)


# ---------------------------------------------------------------------------
# Equality store: union-find with a merge trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeRecord:
    rule: str
    left: ProbTerm
    right: ProbTerm


def _root(parent: list[int], node: int) -> int:
    """Root of ``node`` in a union-find parent list, compressing the path."""
    root = node
    while parent[root] != root:
        root = parent[root]
    while parent[node] != root:
        node, parent[node] = parent[node], root
    return root


class EqualityStore:
    """Union-find over probability terms recording every effective merge.

    Classes only ever grow; the trace lists exactly the merges that changed
    the partition, so replaying it reproduces the partition and the merge
    graph is a forest (paths between terms are unique).  Terms are interned
    as ids in insertion order and every class is rooted at its smallest id,
    the term added earliest.
    """

    def __init__(self, terms=()) -> None:
        self._ids: dict[ProbTerm, int] = {}
        self._terms: list[ProbTerm] = []
        self._parent: list[int] = []
        self.trace: list[MergeRecord] = []
        for term in terms:
            self.add(term)

    def add(self, term: ProbTerm) -> None:
        self._intern(term)

    def _intern(self, term: ProbTerm) -> int:
        """Id of ``term``, registering it first if new; hashes the term once."""
        new = len(self._terms)
        tid = self._ids.setdefault(term, new)
        if tid == new:
            self._terms.append(term)
            self._parent.append(new)
        return tid

    def _id(self, term: ProbTerm) -> int:
        try:
            return self._ids[term]
        except KeyError:
            raise UnknownTerm(str(term)) from None

    def _union(self, rule: str, left: int, right: int) -> bool:
        ra, rb = _root(self._parent, left), _root(self._parent, right)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self.trace.append(MergeRecord(rule, self._terms[left], self._terms[right]))
        return True

    def find(self, term: ProbTerm) -> ProbTerm:
        return self._terms[_root(self._parent, self._id(term))]

    def merge(self, rule: str, left: ProbTerm, right: ProbTerm) -> bool:
        """Union the two classes; record and report whether anything changed."""
        return self._union(rule, self._id(left), self._id(right))

    def same_class(self, left: ProbTerm, right: ProbTerm) -> bool:
        return _root(self._parent, self._id(left)) == _root(self._parent, self._id(right))

    def classes(self) -> list[list[ProbTerm]]:
        grouped: dict[int, list[ProbTerm]] = {}
        for node, term in enumerate(self._terms):
            grouped.setdefault(_root(self._parent, node), []).append(term)
        return list(grouped.values())

    def minimal_trace(self, left: ProbTerm, right: ProbTerm) -> list[MergeRecord]:
        """Shortest chain of recorded merges connecting two equal terms."""
        self._id(left)
        self._id(right)
        if left == right:
            return []
        adjacency: dict[ProbTerm, list[tuple[MergeRecord, ProbTerm]]] = {}
        for record in self.trace:
            adjacency.setdefault(record.left, []).append((record, record.right))
            adjacency.setdefault(record.right, []).append((record, record.left))
        came_from: dict[ProbTerm, tuple[ProbTerm, MergeRecord]] = {left: (left, None)}
        queue = deque([left])
        while queue:
            node = queue.popleft()
            if node == right:
                break
            for record, other in adjacency.get(node, ()):
                if other not in came_from:
                    came_from[other] = (node, record)
                    queue.append(other)
        if right not in came_from:
            raise UnknownTerm(f"no merge chain connects {left} and {right}")
        path: list[MergeRecord] = []
        node = right
        while node != left:
            node, record = came_from[node]
            path.append(record)
        path.reverse()
        return path

    @classmethod
    def from_trace(cls, terms, trace) -> "EqualityStore":
        """Rebuild a store by replaying a recorded merge trace."""
        store = cls(terms)
        for record in trace:
            store.merge(record.rule, record.left, record.right)
        return store


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

def _direction(size: int) -> np.ndarray:
    """Fixed unit real vector; its irregular entries keep distinct states apart."""
    w = np.sin(np.arange(1.0, size + 1.0) ** 2)
    return w / np.linalg.norm(w)


def _frame_states(
    exprs, dec: SchmidtDecomposition
) -> tuple[dict[StateExpr, int], list[int | None], np.ndarray, np.ndarray]:
    """Each distinct expr's state as an r x r matrix in the base Schmidt bases.

    Returns each distinct expr's row in first-occurrence order, each row's
    parent row (``None`` for the base or an unlisted parent), the ``(E, r,
    r)`` stack of matrices, and each row's partner column: the environment
    branch of the one nonzero entry in each system branch's row.  A
    malformed tag raises what ``replay`` raises for it.
    """
    rows: dict[StateExpr, int] = {}
    for expr in exprs:
        rows.setdefault(expr, len(rows))
    parents = [rows.get(expr.parent()) if expr.transforms else None for expr in rows]
    r = dec.rank
    stack = np.zeros((len(rows), r, r), dtype=complex)
    stack[:, range(r), range(r)] = dec.coefficients
    for expr, m in zip(rows, stack):
        for t in expr.transforms:
            # system tags act on the rows, environment tags on the columns
            side = m if isinstance(t, _SYSTEM_SIDE) else m.T
            if isinstance(t, (SystemSwap, EnvSwap)):
                _check_swap(t.i, t.j)
                _check_indices((t.i, t.j), r)
                side[[t.i - 1, t.j - 1]] = side[[t.j - 1, t.i - 1]]
            elif isinstance(t, (SystemPhase, EnvPhase)):
                _check_phase(t.indices, t.betas)
                _check_indices(t.indices, r)
                side[[k - 1 for k in t.indices]] *= np.exp(1j * np.array(t.betas, float))[:, None]
            else:
                raise TypeError(f"unknown transform tag {t!r}")
    if not np.isfinite(stack).all():
        raise ParseError("phases must be finite (no NaN/Inf entries)")
    return rows, parents, stack, np.argmax(stack != 0, axis=2)


def saturate(term_set: TermSet, rules: RuleSet) -> EqualityStore:
    """Apply every enabled merging rule to fixpoint over the term set.

    Each rule's applicability depends only on the exprs' states, never on
    the current partition, so a single deterministic sweep saturates.  The
    states are Schmidt-frame matrices (``_frame_states``), exact for every
    tag, and every distinct expr is visited once:

    * Terms are interned in one pass that also fills the ``(sub, k, expr)
      -> id`` table every rule merges through.  A repeated expr shares its
      first occurrence's ids, so its merges could never change the partition
      and the rules visit distinct exprs only.
    * ``PAIRING`` unions ``S:k`` with ``E:partner[k]``.  Each row of a frame
      matrix holds one nonzero entry, so every system branch has exactly one
      partner and no threshold is needed.
    * ``STATE_FUNCTION`` norm-tests only pairs whose projections on a fixed
      unit vector differ by at most ``STATE_EQ_TOL`` plus a rounding slack.
      A projection difference never exceeds the norm difference, so every
      dropped pair would have failed the norm test; the rest run in (i, j)
      order.  A pair whose exprs are already linked through earlier pairs is
      skipped, since all its terms already share classes.  The frame norm
      equals the dense one, since the Schmidt bases are orthonormal.
    """
    rows, parents, stack, partners = _frame_states(term_set.exprs, term_set.decomposition)
    width = len(term_set.branches)
    slot = {k: n for n, k in enumerate(term_set.branches)}
    table = {expr: {"S": [None] * width, "E": [None] * width} for expr in rows}

    store = EqualityStore()
    intern = store._intern
    state = slots = None
    for term in term_set.terms:
        tid = intern(term)
        if term.state is not state:
            state = term.state
            slots = table.get(state)
        n = slot.get(term.index)
        if slots is not None and n is not None:
            slots[term.subsystem][n] = tid
    for expr, slots in table.items():
        for sub in ("S", "E"):
            if None in slots[sub]:
                k = term_set.branches[slots[sub].index(None)]
                raise UnknownTerm(str(ProbTerm(sub, k, expr)))
    ids = list(table.values())
    union = store._union

    if rules.pairing:
        for row, partner in zip(ids, partners.tolist()):
            for s_id, k in zip(row["S"], partner):
                union("PAIRING", s_id, row["E"][k])

    for rule, enabled, side, sub in (
        ("ENV_LOCALITY", rules.env_locality, _SYSTEM_SIDE, "E"),
        ("SYS_LOCALITY", rules.sys_locality, _ENV_SIDE, "S"),
    ):
        if not enabled:
            continue
        for expr, row in rows.items():
            parent = parents[row]
            if parent is not None and isinstance(expr.transforms[-1], side):
                for child_id, parent_id in zip(ids[row][sub], ids[parent][sub]):
                    union(rule, child_id, parent_id)

    if rules.state_function:
        size = stack[0].size
        # |sigma_i - sigma_j| <= ||A_i - A_j||; the slack covers the rounding
        # of both projections, each within size * eps for unit-norm states
        sigma = stack.reshape(len(rows), size).real @ _direction(size)
        order = np.argsort(sigma, kind="stable")
        ranked = sigma[order]
        bound = STATE_EQ_TOL + 4 * size * np.finfo(float).eps
        reach = np.searchsorted(ranked, ranked + bound, side="right").tolist()
        order = order.tolist()
        candidates = sorted(
            (min(i, j), max(i, j)) for n, i in enumerate(order) for j in order[n + 1 : reach[n]]
        )
        link = list(range(len(rows)))
        for i, j in candidates:
            root_i, root_j = _root(link, i), _root(link, j)
            if root_i == root_j:
                continue  # every (sub, k) pair of terms already shares a class
            if float(np.linalg.norm(stack[i] - stack[j])) <= STATE_EQ_TOL:
                for sub in ("S", "E"):
                    for left, right in zip(ids[j][sub], ids[i][sub]):
                        union("STATE_FUNCTION", left, right)
                link[root_j] = root_i

    return store


def equal_probabilities(
    store: EqualityStore, left: ProbTerm, right: ProbTerm
) -> tuple[bool, list[MergeRecord]]:
    """Class query with the minimal merge chain connecting the two terms."""
    same = store.same_class(left, right)
    chain = store.minimal_trace(left, right) if same else []
    return same, chain


def numeric_probabilities(
    store: EqualityStore,
    state: BipartiteState,
    rules: RuleSet,
    decomposition: SchmidtDecomposition | None = None,
) -> list[tuple[int, Fraction]]:
    """Exact branch probabilities, emitted only when the derivation closed.

    Requires every system-branch term of the base state to sit in a single
    class and the normalization rule to be enabled; each branch then gets
    exactly ``1/d``.  Anything less raises ``IncompleteDerivation`` - the
    engine never invents numbers.
    """
    if not rules.normalization:
        raise IncompleteDerivation("normalization rule is disabled; no numbers can be emitted")
    d = (decomposition if decomposition is not None else schmidt(state)).rank
    base = StateExpr()
    branch_terms = [ProbTerm("S", k, base) for k in range(1, d + 1)]
    roots = {store.find(t) for t in branch_terms}
    if len(roots) != 1:
        raise IncompleteDerivation(
            f"{len(roots)} distinct classes cover the {d} branch terms; equality not derived"
        )
    return [(k, Fraction(1, d)) for k in range(1, d + 1)]
