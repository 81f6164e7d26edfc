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
are permuted and rephased.  ``m`` has one nonzero entry per row, so the
engine keeps it as two length-r arrays: ``col[k]``, the column of row k's
entry, and ``val[k]``, its value.  Swaps permute them and phases multiply
``val``.  Hence:

* ``PAIRING`` pairs ``S:k`` with ``E:col[k]``, a lookup instead of a
  tolerance test;
* ``S`` and ``E`` have orthonormal columns, so ``||S (m_i - m_j) E^T||`` is
  ``||m_i - m_j||``, which ``STATE_FUNCTION`` reads off ``col`` and ``val``
  in O(r).

Every expr is its parent plus one tag, so a term set's exprs form a tree,
and the engine keeps that tree as int arrays in its ``_Exprs``: per expr,
its parent's row, its last tag's kind and a swap's two indices.
``generate_terms`` computes the tree from its distinct swap pairs by index
arithmetic, and lists its exprs as a lazy sequence that builds each
``StateExpr`` on its first read; any other exprs take one pass that also
gives a row to each prefix that is not listed.  Each swap tag is checked
once, as ``replay`` checks it: by ``generate_terms`` for its own swaps,
else right after that pass.  ``_frames`` builds every frame from the tree
one depth level at a time, each level a fixed number of array gathers and
exchanges per tag kind; the locality rules read their pairs off the same
arrays.

The engine runs on structural ids, ``row * 2r + side * r + (k - 1)`` for
branch k on side S (0) or E (1) of the row-th distinct expr, and the
union-find and its merge record hold only those ints: two ids per merge
and one rule entry per batch.  Every term set owns one term sequence, which
all its stores share: ``generate_terms`` returns its terms as a lazy
sequence in structural order, so its stores need no mapping and build each
``ProbTerm`` once, when a caller first reads it; a hand-built term set's
sequence holds its distinct terms, and each structural id is mapped once
to a position there.  A store builds each ``MergeRecord`` once.  A lazy
sequence keeps only the items built so far, so a cold derivation, which
reads no expr but the base, no term and no record, holds arrays and a few
objects per batch.  Its trace holds its term sequence and merge record,
not the store, so no reference cycle keeps a dropped store alive, and a
trace kept after its store still reads.

A report names terms off the same ids, with no ``ProbTerm`` or
``MergeRecord`` built (``EqualityStore._by_name``).  The name of structural
id ``row * 2r + side * r + (k - 1)`` is ``p(X:k; e)`` over the string ``e``
of the row-th expr, formatted once per listed expr by the one helper
``ProbTerm.__str__`` also uses; a hand-built set's terms are named by
``str``.  Every class is rooted at its smallest id, so one stable sort of
the array form's roots, or one pass over the list form's, lists the
classes as ``classes()`` does; ``classes()`` groups the terms the same way
(``_grouped``).  The trace is read off the merge record's two id arrays
and its per-batch rules and ends (``_Trace._entries``).

Each term set finds its rule edges once: on its first saturation it works
out its frames, its id map and every merging rule's pairs of store ids, and
keeps them, so a ``TermSet``'s terms must not change after that.  Each
``saturate`` call builds a fresh store and unites each enabled rule's pairs
as one batch.  A store of fewer than ``_ARRAY_TERMS`` terms runs the batch
through a parent list one pair at a time; a larger one keeps an array of
class roots and handles a batch in one of two ways.  A batch in which every
pair has an end that no other pair touches, as ``PAIRING``'s and the
locality rules' are in a ``generate_terms`` derivation, is a forest of
stars: it keeps every pair, in a few array passes.  Any other batch drops,
in array passes, each pair within one class and each pair whose two
classes an earlier pair of the batch joins, since the loop would keep
neither.  What is left is united in the same array passes when it is a
forest of stars, and otherwise runs through the same one-pair-at-a-time
loop over its class roots.  The size decides the form once, when the
store is built, and both forms record the same merges in the same order.

The dense ``replay`` and ``born_value`` are the oracle that audits it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Sequence
from copy import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import attrgetter, index, sub

import numpy as np

from .envariance import _check_indices, _check_phase, _check_swap, phase_transform, swap_transform
from .errors import (
    IncompleteDerivation,
    ParseError,
    UnevenCoefficients,
    UnknownTerm,
    _sequence,
    _shown,
)
from .schmidt import SchmidtDecomposition, degeneracy_blocks, schmidt
from .states import BipartiteState, apply_env, apply_system

STATE_EQ_TOL = 1e-9

RULE_NAMES = ("PAIRING", "ENV_LOCALITY", "SYS_LOCALITY", "STATE_FUNCTION", "NORMALIZATION")

# Stores with at least this many terms unite batches in array passes (see
# ``EqualityStore``).  On cold equal-branch derivations the two forms' union
# stages broke even near 552 terms (M = 12): the list form was faster at 462
# (M = 11) and below, the array form at 650 (M = 13) and above.
_ARRAY_TERMS = 500

_EPS = float(np.finfo(float).eps)


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
        return StateExpr(self.transforms + (transform,), self.base)

    def parent(self) -> "StateExpr":
        return StateExpr(self.transforms[:-1], self.base)

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
        if not isinstance(self.subsystem, str) or self.subsystem not in ("S", "E"):
            raise ParseError(f"subsystem must be 'S' or 'E', got {_shown(self.subsystem, repr)}")

    def __str__(self) -> str:
        return _term_name(self.subsystem, self.index, self.state)


def _term_name(side, k, expr) -> str:
    """The name ``p(X:k; expr)`` of branch ``k`` on side ``X`` in ``expr``'s state."""
    return f"p({side}:{k}; {expr})"


def _named(term: ProbTerm) -> str:
    """``str(term)`` for an error message: an index too long to print is named by its bit length."""
    state = term.state
    if isinstance(state, StateExpr):  # each tag's indices as ``_shown`` names them
        tags = (replace(t, i=_shown(t.i), j=_shown(t.j)) if isinstance(t, _KINDS[:2])  # a swap
                else replace(t, indices=tuple(map(_shown, t.indices))) if isinstance(t, _KINDS[2:]) else t
                for t in state.transforms)
        state = replace(state, transforms=tuple(tags))
    return _term_name(term.subsystem, _shown(term.index), state)


@dataclass(frozen=True)
class RuleSet:
    """Switchable assumption rules; all merging rules default to on."""

    pairing: bool = True
    env_locality: bool = True
    sys_locality: bool = True
    state_function: bool = True
    normalization: bool = True

    def without(self, name: str) -> "RuleSet":
        if not isinstance(name, str) or name.upper() not in RULE_NAMES:
            raise ParseError(f"unknown rule {_shown(name, repr)}; expected one of {RULE_NAMES}")
        return replace(self, **{name.lower(): False})

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
    _check_indices((term.index,), dec.rank)
    amps = replay(term.state, base_state, dec).amps
    if term.subsystem == "S":
        vec = dec.system_vectors[:, term.index - 1]
        return float(np.linalg.norm(vec.conj() @ amps) ** 2)
    vec = dec.env_vectors[:, term.index - 1]
    return float(np.linalg.norm(amps @ vec.conj()) ** 2)


# ---------------------------------------------------------------------------
# Lazy sequences of terms and merge records
# ---------------------------------------------------------------------------

class _Lazy(Sequence):
    """Read-only sequence whose items are built on their first read and kept.

    ``_built`` maps the number of each item built so far to the item, and
    ``_make(n)`` builds item ``n`` of the ``_size`` items.  Indexes read as a
    list's: a negative one counts from the end, one outside the sequence
    raises ``IndexError`` and one that is not an int ``TypeError``; a slice
    returns the items it covers as a ``_slice``.  The sequence compares equal
    to any sequence with equal items, and ``+`` appends another sequence to it
    as a tuple.
    """

    _built: dict
    _size: int
    _slice = list

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, n):
        if type(n) is not int:
            if isinstance(n, slice):
                return self._slice(map(self.__getitem__, range(*n.indices(self._size))))
            n = index(n)
        if n < 0:
            n += self._size
        item = self._built.get(n)
        if item is None:
            if not 0 <= n < self._size:
                raise IndexError(f"{type(self).__name__} index out of range")
            item = self._built[n] = self._make(n)
        return item

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other) -> tuple:
        return tuple(self) + tuple(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class _Terms(_Lazy):
    """Every term ``p(X:k; expr)`` over distinct exprs, in structural order, then extra terms.

    Item ``row * 2r + side * r + (k - 1)`` is branch ``k`` on side ``"SE"[side]``
    of ``exprs[row]``; this is the order ``generate_terms`` emits and the id
    ``saturate`` gives each term.  The ``extra`` terms follow, each distinct
    one once, in order; they must not be structural terms.  The sequence
    never changes: ``with_term`` returns a longer copy.
    """

    def __init__(self, exprs: Sequence[StateExpr] = (), rank: int = 0, extra=()) -> None:
        self.exprs = exprs
        self.rank = rank
        structural = 2 * rank * len(exprs)
        self._extra = {term: n for n, term in enumerate(dict.fromkeys(extra), structural)}
        self._built: dict[int, ProbTerm] = {n: term for term, n in self._extra.items()}
        self._size = structural + len(self._extra)

    @cached_property
    def _rows(self) -> dict[StateExpr, int]:
        return {expr: row for row, expr in enumerate(self.exprs)}

    def _make(self, n: int) -> ProbTerm:
        r = self.rank
        return ProbTerm("SE"[n // r % 2], n % r + 1, self.exprs[n // (2 * r)])

    def _names(self) -> list[str]:
        """``str`` of every item, in order, with no ``ProbTerm`` built: each listed
        expr is formatted once and named per side and branch, then each extra
        term is formatted."""
        branches = [(x, k) for x in "SE" for k in range(1, self.rank + 1)]
        names = [_term_name(x, k, expr) for expr in map(str, self.exprs) for x, k in branches]
        return names + list(map(str, self._extra))

    def with_term(self, term: ProbTerm) -> "_Terms":
        """A copy whose last item is ``term``, not yet an item; it shares the row map
        and every term built so far."""
        longer = copy(self)
        longer._built = {**self._built, self._size: term}
        longer._extra = {**self._extra, term: self._size}
        longer._size += 1
        return longer

    def position(self, term: ProbTerm) -> int | None:
        """Item number of ``term``, or ``None``."""
        row = self._rows.get(term.state)
        branches = range(1, self.rank + 1)
        if row is None or term.index not in branches:
            return self._extra.get(term)
        side = "SE".index(term.subsystem)
        return (2 * row + side) * self.rank + branches.index(term.index)

    def _id(self, term: ProbTerm) -> int:
        """Item number of ``term``; one that is not an item raises ``UnknownTerm``."""
        n = self.position(term)
        if n is None:
            raise UnknownTerm(_named(term))
        return n


# ---------------------------------------------------------------------------
# Exprs as a tree of int arrays
# ---------------------------------------------------------------------------

# Tag classes, numbered as ``_Exprs.kind`` numbers them: swaps first, system tags even
_KINDS = (SystemSwap, EnvSwap, SystemPhase, EnvPhase)


class _Exprs(_Lazy):
    """Distinct exprs, in order, over their tree of int arrays; read as a tuple.

    Row ``n`` of the tree is row ``parent[n]`` plus one tag; a row whose
    ``parent`` is -1 is a bare base.  ``kind[n]`` numbers the tag's class in
    ``_KINDS`` (-1 for a base), and ``ab[:, n]`` holds a swap's two indices,
    counted from 0 and already checked (0s for a phase or a base).
    ``groups`` pairs a kind with the rows of one tag count that carry it, by
    tag count, so every row's parent lies in an earlier group.  The listed
    exprs own the first rows; ``unlisted`` holds the exprs of the rows after
    them, each a prefix of a listed expr that is not listed.

    ``generate_terms``' exprs are built on first read: row 0 is the base,
    and pair ``p`` of ``pairs`` owns rows ``2p + 1`` (its system swap) and
    ``2p + 2`` (that row plus the environment counterswap).  Other exprs
    (``_with_skeleton``) come built.  A slice is a tuple.
    """

    _slice = tuple

    def __init__(self, parent, kind, ab, groups, built=(), pairs=(), unlisted=()) -> None:
        self.parent, self.kind, self.ab, self.groups = parent, kind, ab, groups
        self.unlisted, self._pairs = unlisted, pairs
        self._built: dict[int, StateExpr] = dict(enumerate(built))
        self._size = parent.size - len(unlisted)

    def _make(self, n: int) -> StateExpr:
        if n == 0:
            return StateExpr()
        i, j = self._pairs[(n - 1) // 2]
        if n % 2:
            return StateExpr((SystemSwap(i, j),))
        return self[n - 1].then(EnvSwap(i, j))

    def row(self, n: int) -> StateExpr:
        """The expr of row ``n``, listed or not."""
        return self[n] if n < self._size else self.unlisted[n - self._size]


def _with_skeleton(exprs, r: int) -> _Exprs:
    """The distinct exprs, in first-occurrence order, as an ``_Exprs`` whose swaps fit rank ``r``.

    An ``_Exprs`` whose swap indices all lie below ``r`` comes back as it
    is: ``generate_terms`` checked each of its swaps.  Other exprs take one
    pass that gives each distinct expr a row, in order, and each prefix that
    is not listed a row after them, as the pass first needs it, and puts
    each row in its group; a tag of no ``_KINDS`` class raises
    ``TypeError``.  Then each swap tag is checked by ``_check_swap``, as
    ``replay`` checks it, in group order, so the first malformed one raises
    what ``replay`` raises for it.
    """
    if isinstance(exprs, _Exprs) and exprs.ab.max(initial=0) < r:
        return exprs
    rows = {expr: n for n, expr in enumerate(dict.fromkeys(exprs))}
    listed = len(rows)
    every = list(rows)  # the pass appends each unlisted prefix it meets
    columns = []  # parent and kind of each row
    groups: dict[tuple[int, int], list[int]] = {}  # rows by tag count and kind
    for n, expr in enumerate(every):
        up = kind = -1
        if expr.transforms:
            up = expr.parent()
            if rows.setdefault(up, len(every)) == len(every):
                every.append(up)
            up, tag = rows[up], expr.transforms[-1]
            kind = next((k for k, cls in enumerate(_KINDS) if isinstance(tag, cls)), None)
            if kind is None:
                raise TypeError(f"unknown transform tag {tag!r}")
        columns.append((up, kind))
        groups.setdefault((len(expr.transforms), kind), []).append(n)
    groups = [(kind, np.array(group)) for (_, kind), group in sorted(groups.items())]
    ab = np.zeros((2, len(every)), dtype=int)
    for n in chain.from_iterable(group for kind, group in groups if kind in (0, 1)):
        t = every[n].transforms[-1]
        _check_swap(t.i, t.j, r)
        ab[:, n] = index(t.i) - 1, index(t.j) - 1
    parent, kind = np.array(columns, dtype=int).reshape(-1, 2).T
    return _Exprs(parent, kind, ab, groups, every[:listed], unlisted=tuple(every[listed:]))


# ---------------------------------------------------------------------------
# Term population
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermSet:
    """Terms for one derivation run plus the context needed to replay them."""

    terms: Sequence[ProbTerm]
    exprs: Sequence[StateExpr]
    branches: tuple[int, ...]
    base_state: BipartiteState
    decomposition: SchmidtDecomposition

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def _terms(self) -> _Terms:
        """The one term sequence every store of this set shares: ``generate_terms``'
        lazy terms, else one over the set's distinct terms, in order."""
        return self.terms if isinstance(self.terms, _Terms) else _Terms(extra=self.terms)

    @cached_property
    def _edges(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each merging rule's ``(lefts, rights)`` int32 arrays of store ids, found once.

        The states are Schmidt-frame permutations and phases (``_frames``),
        exact for every tag, and every distinct expr is visited once.  Each
        rule pairs structural term ids, ``row * 2r + side * r + (k - 1)``
        over the distinct exprs.  ``generate_terms`` lists each expr once; in
        a hand-built set a repeated expr shares its first occurrence's ids,
        so its merges could never change the partition.
        For ``generate_terms``' lazy terms those are the store's ids; a
        hand-built term set (any other terms) must hold every structural
        term, else ``UnknownTerm`` names the first one missing, and each
        structural id is mapped once to its term's position in ``_terms``.

        * ``PAIRING`` pairs ``S:k`` with ``E:col[k]``.  Each row of a frame
          matrix holds one nonzero entry, so every system branch has exactly
          one partner and no threshold is needed.
        * ``ENV_LOCALITY`` (``SYS_LOCALITY``) pairs each environment (system)
          term of an expr whose last tag acts on the system (environment)
          with the same term of its parent expr, when the parent is listed.
        * ``STATE_FUNCTION`` pairs all terms of the expr pairs that
          ``_state_function_pairs`` finds within ``STATE_EQ_TOL``.  The frame
          norm equals the dense one, since the Schmidt bases are orthonormal.
        """
        exprs, _, col, val = _frames(self.exprs, self.decomposition)
        r = col.shape[1]
        terms = self._terms
        if terms.rank == r and terms.exprs == self.exprs:
            ids = np.arange(len(exprs) * 2 * r, dtype=np.int32)  # the set's terms are the structural ones
        else:
            structural = (ProbTerm(x, k, expr) for expr in exprs for x in "SE" for k in range(1, r + 1))
            ids = np.array([terms._id(term) for term in structural], dtype=np.int32)
        ids = ids.reshape(len(exprs), 2, r)  # ids[row, side, k - 1]
        edges = {"PAIRING": (ids[:, 0], ids[np.arange(len(exprs))[:, None], 1, col])}
        up, kind = exprs.parent[: len(exprs)], exprs.kind[: len(exprs)]
        listed = (up >= 0) & (up < len(exprs))
        for rule, side, sub in (("ENV_LOCALITY", 0, 1), ("SYS_LOCALITY", 1, 0)):
            children = (listed & (kind % 2 == side)).nonzero()[0]  # tags of that side
            edges[rule] = (ids[children, sub], ids[up[children], sub])
        pairs = np.array(_state_function_pairs(col, val), dtype=int).reshape(-1, 2)
        edges["STATE_FUNCTION"] = (ids[pairs[:, 1]], ids[pairs[:, 0]])
        return {rule: (lefts.ravel(), rights.ravel()) for rule, (lefts, rights) in edges.items()}


def generate_terms(
    state: BipartiteState,
    swaps,
    decomposition: SchmidtDecomposition | None = None,
) -> TermSet:
    """Emit the probability terms the swap argument talks about.

    For each swap pair ``(i, j)`` the transcript visits the base state, the
    state after the system swap, and the state after the environment
    counterswap.  Each distinct stop is listed once, in first-visit order,
    so a repeated swap adds no expr and no terms; terms cover both
    subsystems and every branch at each stop, in structural order (``S``
    then ``E``, branches ascending, per expr).  The exprs are an ``_Exprs``,
    a lazy sequence that reads as a tuple, over their tree of rows: the
    base, then each distinct pair's two stops, computed from the pairs by
    index arithmetic.  ``_frames`` builds the frames from that tree, and
    each ``StateExpr`` is built on its first read.
    Swapped branches must carry equal coefficients, otherwise swapping has
    no claim to preserve the probability bookkeeping.  Equal means in one
    ``degeneracy_blocks`` block, the test ``check_envariance`` applies; a
    swap across blocks raises ``UnevenCoefficients``, even when its two
    coefficients differ by less than ``DEGENERACY_TOL``, since such gaps can
    chain past the tolerance.  So every swap ``check_envariance`` accepts is
    accepted here, but not the reverse: a same-block swap whose restored
    state lies farther than ``tol`` from the base state is accepted, and
    ``STATE_FUNCTION`` derives nothing from it.  The terms are a lazy
    sequence: each ``ProbTerm`` is built on its first read.
    """
    dec = decomposition if decomposition is not None else schmidt(state)
    r = dec.rank
    block_of = {k: block for block in degeneracy_blocks(dec) for k in block}
    pairs: dict[tuple[int, int], None] = {}  # each distinct swap once, in first-visit order
    for swap in _sequence(swaps, "swaps", ParseError):
        try:
            i, j = swap
        except (TypeError, ValueError) as exc:
            raise ParseError(f"swap {_shown(swap, repr)} is not a pair of branch indices") from exc
        _check_swap(i, j, r)
        if block_of[i] != block_of[j]:
            raise UnevenCoefficients(
                f"branches {i} and {j} lie in different equal-coefficient blocks"
                f" {block_of[i]} and {block_of[j]}"
            )
        pairs[i, j] = None  # a pair equals another exactly when its stops do
    pairs = list(pairs)
    # row 0 is the base; pair p's system swap is row 2p + 1, its counterswap row 2p + 2
    size = 1 + 2 * len(pairs)
    parent = np.arange(-1, size - 1)
    parent[1::2] = 0
    kind = 1 - np.arange(size) % 2
    kind[0] = -1
    ab = np.zeros((2, size), dtype=int)
    ab[:, 1::2] = ab[:, 2::2] = np.array(pairs, dtype=np.int64).reshape(-1, 2).T - 1
    groups = [(-1, np.zeros(1, dtype=int)), (0, np.arange(1, size, 2)), (1, np.arange(2, size, 2))]
    exprs = _Exprs(parent, kind, ab, groups, pairs=pairs)
    return TermSet(_Terms(exprs, r), exprs, tuple(range(1, r + 1)), state, dec)


# ---------------------------------------------------------------------------
# Equality store: union-find with a merge trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeRecord:
    rule: str
    left: ProbTerm
    right: ProbTerm


def _root(parent: list[int] | dict[int, int], node: int) -> int:
    """Root of ``node`` in a union-find parent list or dict, compressing the path."""
    root = node
    while parent[root] != root:
        root = parent[root]
    while parent[node] != root:
        node, parent[node] = parent[node], root
    return root


def _union_in_order(parent: list[int] | dict[int, int], lefts: np.ndarray, rights: np.ndarray) -> list[int]:
    """Positions of the edges ``(lefts[n], rights[n])`` that a union in order keeps.

    ``parent`` is a union-find parent list, or a dict holding every id the
    edges name, whose classes are rooted at their smallest id; it is updated
    in place, one edge at a time.
    """
    kept = []
    for n, (left, right) in enumerate(zip(lefts.tolist(), rights.tolist())):
        # most terms sit at most one step below their root
        ra = parent[left]
        if parent[ra] != ra:
            ra = _root(parent, ra)
        rb = parent[right]
        if parent[rb] != rb:
            rb = _root(parent, rb)
        if ra == rb:
            continue
        if rb < ra:
            parent[ra] = rb
        else:
            parent[rb] = ra
        kept.append(n)
    return kept


def _spanning_forest(root: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Positions of the edges ``(lefts[n], rights[n])`` that a union in order keeps.

    ``root`` maps each id to its class's smallest id; it is updated in place
    to the partition after the batch.  One count of each class's edge ends
    (``_stars``) finds a batch in which every edge has an end of degree one,
    an end no other edge touches.  No edge of such a batch closes a cycle or
    repeats another: it is a forest of stars, every edge is kept, and each
    star's classes take the smallest of their roots.  A matching, such as
    ``PAIRING``'s batch in a fresh store, is the case where every end has
    degree one.

    Any other batch first drops the edges a union in order could never
    keep: each one within one class, and each one whose class pair an
    earlier edge of the batch already joins.  Under every rule, an
    equal-branch ``STATE_FUNCTION`` batch comes down to one edge per expr
    pair, not 2M.  When the rest form a forest of stars, they are united
    by the same count; otherwise they go through ``_union_in_order`` on a
    dict parent over their class roots, and ``root`` is remapped once.
    """
    a, b = root[lefts], root[rights]
    if a.size and _stars(root, a, b):
        return np.arange(a.size)
    edge = np.flatnonzero(a != b)
    if not edge.size:
        return edge
    a, b = a[edge], b[edge]
    _, first = np.unique(np.minimum(a, b) * root.size + np.maximum(a, b), return_index=True)
    first.sort()
    edge, a, b = edge[first], a[first], b[first]
    if _stars(root, a, b):
        return edge
    parent = {node: node for node in np.concatenate((a, b)).tolist()}
    kept = edge[_union_in_order(parent, a, b)]
    low = np.arange(root.size)
    low[list(parent)] = [_root(parent, node) for node in parent]
    root[:] = low[root]
    return kept


def _stars(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the edges ``(a[n], b[n])`` between class roots form a forest of stars,
    every edge with an end no other edge touches; if so, unite them in ``root``.

    Each star's classes take the smallest of their roots, as a union in
    order roots them, and ``root`` is updated in place.
    """
    degree = np.bincount(np.concatenate((a, b)))
    leaf = degree[a] == 1
    if not (leaf | (degree[b] == 1)).all():
        return False
    centre, leaf = np.where(leaf, b, a), np.where(leaf, a, b)
    low = np.arange(root.size)
    np.minimum.at(low, centre, leaf)
    low[leaf] = low[centre]
    root[:] = low[root]
    return True


class _Trace(_Lazy):
    """A store's effective merges as ``MergeRecord``s, in the order made.

    Built from the store's term sequence and merge record, never the store
    itself (see ``EqualityStore``).  The record holds each merge's two ids
    and, per batch, one entry in ``_rules`` and in ``_ends``: the batch's
    rule and the number of merges made by its end.
    """

    def __init__(self, terms: _Terms) -> None:
        self._terms = terms
        self._lefts, self._rights = array("i"), array("i")
        self._rules: list[str] = []
        self._ends: list[int] = []
        self._built: dict[int, MergeRecord] = {}
        self._size = 0

    def _record(self, rule: str, lefts: np.ndarray, rights: np.ndarray) -> None:
        """Append one batch of merges, the ids ``lefts[n]`` and ``rights[n]`` of each."""
        if lefts.size:
            self._lefts.frombytes(lefts.astype(np.intc, copy=False).tobytes())
            self._rights.frombytes(rights.astype(np.intc, copy=False).tobytes())
            self._size = len(self._lefts)
            self._rules.append(rule)
            self._ends.append(self._size)

    def _make(self, n: int) -> MergeRecord:
        rule = self._rules[bisect_right(self._ends, n)]
        return MergeRecord(rule, self._terms[self._lefts[n]], self._terms[self._rights[n]])

    def _entries(self, items: Sequence) -> Iterator[tuple]:
        """``(rule, items[left], items[right])`` of each merge, in order; with the
        term sequence as ``items``, the fields of its ``MergeRecord``."""
        runs = map(sub, self._ends, [0, *self._ends[:-1]])  # merges per batch
        rules = chain.from_iterable(map(repeat, self._rules, runs))
        return zip(rules, map(items.__getitem__, self._lefts), map(items.__getitem__, self._rights))


class EqualityStore:
    """Union-find over probability terms recording every effective merge.

    Classes only ever grow; the trace lists exactly the merges that changed
    the partition, so replaying it reproduces the partition and the merge
    graph is a forest (paths between terms are unique).  Terms are ids in
    insertion order and every class is rooted at its smallest id, the term
    added earliest.  The store keeps one lazy term sequence: the one it is
    built from if that is a ``_Terms`` (``saturate`` hands over its term
    set's, so a term set and its stores share their terms and build each
    ``ProbTerm`` once), else one over the distinct terms it is built from.
    ``add`` replaces the store's sequence, and its trace's, with a copy that
    also holds the new term, so the term set's never changes; that copies
    the terms built so far, O(n) at most, as the array form's ``add``
    already copies its parent array.  A structural term is looked up by
    position without being built, any other by a dict.  The union-find and
    the merge record (each merge's two ids, and each batch's rule) hold ids
    only: ``trace``, ``classes()``, ``find()`` and ``minimal_trace()``
    build each ``ProbTerm`` and ``MergeRecord`` they return once, on first
    read.  ``trace`` holds the term sequence and the merge record, never the
    store: the store is freed as soon as its last reference goes, and a
    trace kept after it still reads.

    The union-find takes one of two forms, fixed when the store is built.
    A store of fewer than ``_ARRAY_TERMS`` terms keeps a parent list and
    unites a batch of pairs one at a time (``_union_in_order``), which costs
    about a microsecond per pair.  A larger store keeps a flat int64 array
    mapping each id to its class's smallest id (``_spanning_forest``): a
    forest of stars is united in a few array passes; any other batch is cut,
    in array passes, to the pairs that join two classes no earlier pair of
    the batch joins, and those are united as a forest of stars when they
    form one, else by ``_union_in_order`` over their class roots.  A batch
    that changes the partition costs a pass over the whole array, however
    small the batch.  Both take a batch, update the partition and return
    the positions of the pairs they kept: the same merges, in the same
    order, with the same roots.  ``_unite`` then records
    those merges in one step for either form: their ids, copied as they come
    when the batch kept every pair, and the batch's rule and end.
    ``_root_of`` reads one root for either form, and ``find()`` and
    ``same_class()`` go through it; ``classes()`` groups the ids by their
    roots (``_grouped``).
    """

    def __init__(self, terms=()) -> None:
        self._terms = terms if isinstance(terms, _Terms) else _Terms(extra=terms)
        size = len(self._terms)
        self._parent = np.arange(size, dtype=np.int64) if size >= _ARRAY_TERMS else list(range(size))
        self.trace = _Trace(self._terms)
        self._lefts, self._rights = self.trace._lefts, self.trace._rights

    def add(self, term: ProbTerm) -> None:
        """Bring in ``term`` as a class of its own, unless the store holds it already."""
        if self._terms.position(term) is None:
            n = len(self._terms)
            self._terms = self.trace._terms = self._terms.with_term(term)
            if isinstance(self._parent, list):
                self._parent.append(n)
            else:
                self._parent = np.append(self._parent, n)

    def _id(self, term: ProbTerm) -> int:
        return self._terms._id(term)

    def _root_of(self, tid: int) -> int:
        parent = self._parent
        return _root(parent, tid) if isinstance(parent, list) else int(parent[tid])

    def _unite(self, rule: str, lefts, rights) -> int:
        """Union ``lefts[n]`` with ``rights[n]`` (flat ids) in order; record the effective ones."""
        lefts, rights = np.ravel(lefts), np.ravel(rights)
        parent = self._parent
        unite = _union_in_order if isinstance(parent, list) else _spanning_forest
        kept = unite(parent, lefts, rights)
        if len(kept) < lefts.size:
            lefts, rights = lefts[kept], rights[kept]
        self.trace._record(rule, lefts, rights)
        return lefts.size

    def find(self, term: ProbTerm) -> ProbTerm:
        return self._terms[self._root_of(self._id(term))]

    def merge(self, rule: str, left: ProbTerm, right: ProbTerm) -> bool:
        """Union the two classes; record and report whether anything changed."""
        return self._unite(rule, self._id(left), self._id(right)) > 0

    def same_class(self, left: ProbTerm, right: ProbTerm) -> bool:
        return self._root_of(self._id(left)) == self._root_of(self._id(right))

    def classes(self) -> list[list[ProbTerm]]:
        return self._grouped(self._terms)

    def _grouped(self, items: Sequence) -> list[list]:
        """``items[n]`` of every id ``n``, a list per class, in the order ``classes()`` lists.

        Every class is rooted at its smallest id, so listing the classes in
        the order of their first ids lists them by root, each with its ids
        ascending.  The list form groups its ids by root in one pass; the
        array form sorts its root array once, stably.
        """
        parent = self._parent
        if isinstance(parent, list):
            grouped: dict[int, list] = {}
            for n in range(len(parent)):
                grouped.setdefault(_root(parent, n), []).append(items[n])
            return list(grouped.values())
        order = parent.argsort(kind="stable")
        ends = (np.flatnonzero(np.diff(parent[order])) + 1).tolist()
        ordered = list(map(items.__getitem__, order.tolist()))
        return [ordered[a:b] for a, b in zip([0, *ends], [*ends, len(ordered)])] if ordered else []

    def _by_name(self) -> tuple[list[list[str]], Iterator[tuple[str, str, str]]]:
        """``classes()`` and the trace's ``(rule, left, right)`` with each term as its
        ``str``, read off the ids: no ``ProbTerm`` or ``MergeRecord`` is built."""
        names = self._terms._names()
        return self._grouped(names), self.trace._entries(names)

    def minimal_trace(self, left: ProbTerm, right: ProbTerm) -> list[MergeRecord]:
        """Shortest chain of recorded merges connecting two equal terms."""
        start, goal = self._id(left), self._id(right)
        if start == goal:
            return []
        adjacency: dict[int, list[tuple[int, int]]] = {}
        for n, (a, b) in enumerate(zip(self._lefts, self._rights)):
            adjacency.setdefault(a, []).append((n, b))
            adjacency.setdefault(b, []).append((n, a))
        came_from: dict[int, tuple[int, int]] = {start: (start, -1)}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node == goal:
                break
            for n, other in adjacency.get(node, ()):
                if other not in came_from:
                    came_from[other] = (node, n)
                    queue.append(other)
        if goal not in came_from:
            raise UnknownTerm(f"no merge chain connects {_named(left)} and {_named(right)}")
        path: list[MergeRecord] = []
        node = goal
        while node != start:
            node, n = came_from[node]
            path.append(self.trace[n])
        path.reverse()
        return path

    @classmethod
    def from_trace(cls, terms, trace) -> "EqualityStore":
        """Rebuild a store by replaying a recorded merge trace, a batch per run of one rule."""
        store = cls(terms)
        for rule, run in groupby(trace, key=attrgetter("rule")):
            pairs = [(store._id(record.left), store._id(record.right)) for record in run]
            store._unite(rule, *np.array(pairs, dtype=np.int64).T)
        return store


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

def _direction(size: int) -> np.ndarray:
    """Fixed unit real vector; its irregular entries keep distinct states apart."""
    w = np.sin(np.arange(1.0, size + 1.0) ** 2)
    return w / np.sqrt(w @ w)  # the bits of np.linalg.norm, without its dispatch


def _exchanged(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with the values ``a[n]`` and ``b[n]`` exchanged in its row ``n``."""
    a, b = a[:, None], b[:, None]
    return np.where(x == a, b, np.where(x == b, a, x))


def _frames(
    exprs, dec: SchmidtDecomposition
) -> tuple[_Exprs, list[int | None], np.ndarray, np.ndarray]:
    """Each distinct expr's Schmidt-frame matrix as a permutation and a phase.

    The r x r matrix ``m`` of an expr (its state is ``S m E^T``) has one
    nonzero entry per row, so it is kept as two ``(E, r)`` arrays: ``col[n,
    k]`` is the column of row ``k``'s entry for expr ``n`` and ``val[n, k]``
    its value.  A system swap permutes both at the swapped rows, an
    environment swap exchanges two columns, and a phase multiplies ``val``.

    Every expr is its parent plus one tag, so the frames are built from the
    exprs' tree of rows (``_with_skeleton``: ``generate_terms`` hands over
    its own, and other exprs take one pass, which also checks their swap
    tags), one group of rows at a time, each group one tag count and one
    tag kind, fewer tags first.  A group of system swaps gathers its
    parents' frames with rows ``a`` and ``b`` exchanged; a group of
    environment swaps gathers them and exchanges the labels ``a`` and ``b``
    in ``col``: a fixed number of array operations per group.  Each phase
    tag is checked, as ``replay`` checks it, and applied on its own.
    Returns the distinct exprs in first-occurrence order (an ``_Exprs``),
    each one's parent row (``None`` for a base or an unlisted parent),
    ``col`` and ``val``.
    """
    r = dec.rank
    exprs = _with_skeleton(exprs, r)
    col = np.empty((exprs.parent.size, r), dtype=int)
    val = np.empty((exprs.parent.size, r), dtype=complex)
    for kind, rows in exprs.groups:
        if kind < 0:
            col[rows], val[rows] = np.arange(r), dec.coefficients
            continue
        up = exprs.parent[rows]
        if kind >= 2:
            col[rows], val[rows] = col[up], val[up]
            for n in rows.tolist():
                t = exprs.row(n).transforms[-1]
                indices, betas = _check_phase(t.indices, t.betas, r)
                for k, phase in zip(indices, np.exp(1j * np.array(betas, float))):
                    val[n, k - 1 if kind == 2 else col[n].tolist().index(k - 1)] *= phase
            continue
        a, b = exprs.ab[:, rows]
        if kind == 0:  # the parent's rows a and b change places
            up = up[:, None], _exchanged(np.arange(r), a, b)
            col[rows], val[rows] = col[up], val[up]
        else:  # its columns a and b change places, so their labels do
            col[rows], val[rows] = _exchanged(col[up], a, b), val[up]
    listed = len(exprs)
    parents = [up if 0 <= up < listed else None for up in exprs.parent[:listed].tolist()]
    return exprs, parents, col[:listed], val[:listed]


def _state_function_pairs(col: np.ndarray, val: np.ndarray) -> list[tuple[int, int]]:
    """Pairs ``(i, j)``, ``i < j``, of exprs that ``STATE_FUNCTION`` merges, in order.

    Only pairs whose projections on a fixed unit vector differ by at most
    ``STATE_EQ_TOL`` plus a rounding slack are candidates, taken in (i, j)
    order, and a pair whose exprs are already linked through earlier pairs is
    skipped.  The norm of ``m_i - m_j`` is read off the frames in O(r): a row
    whose entries share a column adds ``|v_i - v_j|^2``, any other row
    ``|v_i|^2 + |v_j|^2``.  The exprs are linked by ``_union_in_order`` on
    a parent list.  Each first expr's later partners that are not linked to
    it yet are norm-tested in one array pass, and those that pass are
    linked to it in order: the union keeps the first of each link class to
    pass.  Skipping the linked partners changes no pair, only the work: on
    small drawn states most turns would test only linked partners.  An expr
    whose frame equals, entry for entry, that of the lowest expr of equal
    projection takes no turn: that expr linked it and tested every partner
    it would test, with the same bits.
    """
    count, r = col.shape
    size = r * r
    # |sigma_i - sigma_j| <= ||m_i - m_j||; the slack covers the rounding of
    # both projections, each within size * eps for unit-norm states
    sigma = (val.real * _direction(size)[np.arange(r) * r + col]).sum(axis=1)
    order = sigma.argsort(kind="stable")
    ranked = sigma[order]
    bound = STATE_EQ_TOL + 4 * size * _EPS
    # each expr's window of ranks, itself included
    start = ranked.searchsorted(sigma - bound, side="left")
    stop = ranked.searchsorted(sigma + bound, side="right")
    turns = (stop - start > 1).nonzero()[0]
    lowest = order[ranked.searchsorted(sigma[turns], side="left")]  # of equal projection
    copies = (lowest != turns) & (col[turns] == col[lowest]).all(axis=1)
    copies &= (val[turns] == val[lowest]).all(axis=1)
    link = list(range(count))  # a union-find parent list over the exprs
    pairs = []
    for i in turns[~copies].tolist():
        root = _root(link, i)  # a later partner linked to i already takes no norm test
        partners = np.sort([j for j in order[start[i] : stop[i]].tolist() if j > i and _root(link, j) != root])
        if not partners.size:
            continue
        rows = np.where(
            col[partners] == col[i],
            abs(val[i] - val[partners]) ** 2,
            abs(val[i]) ** 2 + abs(val[partners]) ** 2,
        )
        passed = partners[np.sqrt(rows.sum(axis=1)) <= STATE_EQ_TOL]
        kept = _union_in_order(link, np.full(passed.size, i), passed)
        pairs += [(i, j) for j in passed[kept].tolist()]
    return pairs


def saturate(term_set: TermSet, rules: RuleSet) -> EqualityStore:
    """Apply every enabled merging rule to fixpoint over the term set.

    Each rule's applicability depends only on the exprs' states, never on
    the current partition, so a single deterministic sweep saturates.  The
    term set finds every merging rule's edges once, on its first
    saturation, and keeps them (``TermSet._edges``); so its terms must not
    change after that.  Each call builds a store over the term set's one
    term sequence (``TermSet._terms``), which every call shares, and unites
    each enabled rule's edges as one batch, in ``RULE_NAMES`` order.
    Whether a union changes the partition does not depend on the ids, so the
    trace is the same under any mapping of structural ids to store ids, and
    each root is the earliest-added term in the term set's order.  The
    edges are read even when every rule is off, so a malformed tag or a
    missing term raises whatever the rule set.
    """
    store = EqualityStore(term_set._terms)
    for rule, (lefts, rights) in term_set._edges.items():
        if getattr(rules, rule.lower()):
            store._unite(rule, lefts, rights)
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
    base, terms = StateExpr(), store._terms
    if terms.rank == d and terms.exprs[:1] == (base,):  # as ``generate_terms`` lists it
        ids = range(d)
    else:
        ids = (store._id(ProbTerm("S", k, base)) for k in range(1, d + 1))
    roots = {store._root_of(tid) for tid in ids}
    if len(roots) != 1:
        raise IncompleteDerivation(
            f"{len(roots)} distinct classes cover the {d} branch terms; equality not derived"
        )
    share = Fraction(1, d)
    return [(k, share) for k in range(1, d + 1)]
