"""Fine-graining rational branch weights into equal-amplitude sub-branches.

A weight vector ``(m_1/M, ..., m_n/M)`` becomes a state on an enlarged
environment where branch ``k`` spreads over ``m_k`` environment directions
of amplitude ``1/sqrt(M)`` each.  Because all M sub-branches are equal, the
equal-likelihood derivation applies, and summing ``m_k`` shares of ``1/M``
recovers the squared Schmidt coefficients in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm

import numpy as np

from .derivation import EqualityStore, RuleSet, TermSet, generate_terms, numeric_probabilities, saturate
from .errors import IncompleteDerivation, NoRationalFit, WeightMismatch, _integer, _real, _sequence, _shown
from .schmidt import SchmidtDecomposition
from .states import BipartiteState, make_state

# Largest grain M: ``rationalize``'s default bound, the ``finegrain`` command's,
# and the largest ``equal_branch_derivation`` builds (its store holds 4M^2 - 2M terms).
MAX_GRAIN = 1000


@dataclass(frozen=True)
class RationalWeights:
    """Branch weights ``m_k / M`` with the grain M kept un-reduced.

    Each numerator and the denominator must be an int as ``operator.index``
    reads one; a float, a string or anything else raises ``WeightMismatch``,
    as do numerators that are not a sequence.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        ms = _sequence(self.numerators, "numerators", WeightMismatch)
        ms = tuple(_integer(m, "numerator", WeightMismatch) for m in ms)
        denominator = _integer(self.denominator, "denominator", WeightMismatch)
        if not ms or any(m <= 0 for m in ms):
            raise WeightMismatch(f"numerators must be positive integers, got {_shown(self.numerators)}")
        if sum(ms) != denominator:
            raise WeightMismatch(
                f"numerators sum to {_shown(sum(ms))} but denominator is {_shown(denominator)}"
            )
        object.__setattr__(self, "numerators", ms)
        object.__setattr__(self, "denominator", denominator)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.denominator) for m in self.numerators)

    @classmethod
    def from_fractions(cls, fracs) -> "RationalWeights":
        """The weights ``fracs`` over their least common denominator.  Each is read
        by ``Fraction``; fractions that are not a sequence, or one that
        ``Fraction`` refuses, raise ``WeightMismatch``."""
        fracs = list(_sequence(fracs, "fractions", WeightMismatch))
        for n, f in enumerate(fracs):
            try:
                fracs[n] = Fraction(f)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise WeightMismatch(f"fraction {_shown(f, repr)} is not a rational number") from None
        m = lcm(*(f.denominator for f in fracs)) if fracs else 1
        return cls(tuple(f.numerator * (m // f.denominator) for f in fracs), m)


@dataclass(frozen=True)
class FineGrainedState:
    """Even-amplitude state over the enlarged environment.

    ``branch_map[k-1]`` lists the 1-based environment indices carrying
    branch k; together the blocks partition ``1..M``.
    """

    state: BipartiteState
    branch_map: tuple[tuple[int, ...], ...]


def rationalize(weights, tol: float = 1e-9, max_den: int = MAX_GRAIN) -> RationalWeights:
    """Fit floating weights with a common denominator at most ``max_den``.

    Each weight is replaced by its best rational approximant of bounded
    denominator (continued-fraction convergents via
    ``Fraction.limit_denominator``); the approximants must share a
    denominator within the bound, reproduce every weight within ``tol``,
    and sum to one, otherwise ``NoRationalFit`` is raised.  Weights that
    are not a sequence of real numbers (``numbers.Real``), such as a string
    or a list of numeric strings, raise ``WeightMismatch``, and so do a
    ``tol`` that is not a real number and a ``max_den`` that is not an int
    of at least 1.
    """
    ws = [_real(w, "weight", WeightMismatch) for w in _sequence(weights, "weights", WeightMismatch)]
    tol = _real(tol, "tol", WeightMismatch)
    max_den = _integer(max_den, "max_den", WeightMismatch)
    if max_den < 1:
        raise WeightMismatch(f"max_den must be at least 1, got {_shown(max_den)}")
    if not ws or not all(0 < w < float("inf") for w in ws):
        raise WeightMismatch(f"weights must be positive and finite, got {weights}")
    if abs(sum(ws) - 1.0) > tol:
        raise WeightMismatch(f"weights sum to {sum(ws)!r}, not 1 within {tol}")
    fracs = [Fraction(w).limit_denominator(max_den) for w in ws]
    m = lcm(*(f.denominator for f in fracs))
    if m > max_den:
        raise NoRationalFit(f"common denominator {m} exceeds bound {max_den}")
    numerators = [f.numerator * (m // f.denominator) for f in fracs]
    if any(n <= 0 for n in numerators) or sum(numerators) != m:
        raise NoRationalFit("bounded-denominator approximants do not form a unit weight vector")
    worst = max(abs(n / m - w) for n, w in zip(numerators, ws))
    if worst > tol:
        raise NoRationalFit(f"best fit with denominator {m} misses a weight by {worst:.3g}")
    return RationalWeights(tuple(numerators), m)


def fine_grain(weights: RationalWeights, n: int) -> FineGrainedState:
    """Spread branch k of an n-branch system over ``m_k`` environment slots.

    Environment indices are allocated consecutively, so the resulting
    amplitude matrix has ``M`` entries of ``1/sqrt(M)`` and the squared
    Schmidt coefficients are exactly the weights.
    """
    if _integer(n, "branch count", WeightMismatch) != len(weights.numerators):
        raise WeightMismatch(f"{len(weights.numerators)} weights cannot fill {_shown(n)} branches")
    m_total = weights.denominator
    amp = 1.0 / np.sqrt(m_total)
    amps = np.zeros((n, m_total), dtype=complex)
    branch_map = _branch_blocks(weights.numerators)
    for k, block in enumerate(branch_map):
        amps[k, block[0] - 1 : block[-1]] = amp
    return FineGrainedState(make_state(amps), branch_map)


def _branch_blocks(numerators: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Consecutive 1-based environment slots of each branch, ``m_k`` of them."""
    ends = accumulate(numerators)
    return tuple(tuple(range(end - m + 1, end + 1)) for m, end in zip(numerators, ends))


class _Shares(tuple):
    """The engine's ``1/M`` shares of one grain, kept also as prefix sums of their
    integer numerators over M: ``prefix[j]`` adds up the first j."""

    prefix: tuple[int, ...]

    def __new__(cls, shares, m_total: int) -> "_Shares":
        self = super().__new__(cls, shares)
        if any(m_total % share.denominator for share in self):
            raise IncompleteDerivation(f"the shares of grain {m_total} are not multiples of 1/{m_total}")
        numerators = (share.numerator * (m_total // share.denominator) for share in self)
        self.prefix = tuple(accumulate(numerators, initial=0))
        return self


def equal_branch_derivation(
    m_total: int,
) -> tuple[TermSet, EqualityStore, tuple[Fraction, ...]]:
    """Run the equality engine on the even M-branch state, once per grain.

    The fully fine-grained pair (system refined alongside the environment)
    is the diagonal state with M equal branches; adjacent swaps plus the
    full rule set put every branch term in one class, so each sub-branch
    receives exactly ``1/M``.  Results are cached because they depend only
    on M; the cache holds the 64 most recent grains, enough for every grain
    of the M <= 32 acceptance sweep to stay resident.  The shares also carry
    the prefix sums of their integer numerators over M, which counting reads.
    Before the cache sees it, a grain that is not an integer (as
    ``operator.index`` reads one) or is below 1 is refused with
    ``WeightMismatch``, and one above ``MAX_GRAIN`` with ``NoRationalFit``.
    So ``6.0`` is refused even once ``6`` is cached, an unhashable grain
    such as ``[3]`` is refused like any other, and ``np.int64(3)`` shares
    grain 3's entry.  ``cache_info``, ``cache_clear`` and ``__wrapped__``
    (the uncached run) are the cache's.
    """
    m_total = _integer(m_total, "grain", WeightMismatch)
    if m_total < 1:
        raise WeightMismatch(f"the grain must be at least 1, got {_shown(m_total)}")
    if m_total > MAX_GRAIN:
        raise NoRationalFit(f"grain {_shown(m_total)} exceeds bound {MAX_GRAIN}")
    return _derive_grain(m_total)


def _even_decomposition(m_total: int) -> SchmidtDecomposition:
    """The Schmidt form of the even M-branch state ``eye(M) / sqrt(M)``, read off:
    M coefficients ``M**-0.5`` on the standard bases of both sides."""
    eye = np.eye(m_total)
    return SchmidtDecomposition(np.full(m_total, m_total**-0.5), eye, eye)


@lru_cache(maxsize=64)
def _derive_grain(m_total: int) -> tuple[TermSet, EqualityStore, tuple[Fraction, ...]]:
    """``equal_branch_derivation`` of a checked int grain.

    The state is diagonal, so its Schmidt form is read off
    (``_even_decomposition``) rather than computed by ``schmidt``; the
    decomposition's constructor still checks it.
    """
    state = make_state(np.eye(m_total, dtype=complex) / np.sqrt(m_total))
    swaps = tuple((k, k + 1) for k in range(1, m_total))
    term_set = generate_terms(state, swaps, _even_decomposition(m_total))
    rules = RuleSet()
    store = saturate(term_set, rules)
    probs = numeric_probabilities(store, state, rules, term_set.decomposition)
    return term_set, store, _Shares((p for _, p in probs), m_total)


equal_branch_derivation.cache_info = _derive_grain.cache_info
equal_branch_derivation.cache_clear = _derive_grain.cache_clear
equal_branch_derivation.__wrapped__ = _derive_grain.__wrapped__


def born_via_counting(weights: RationalWeights) -> list[Fraction]:
    """Exact branch probabilities obtained by counting equal sub-branches.

    Routes through the derivation engine's equal-branch result rather than
    reading squared coefficients: branch k aggregates the ``1/M`` shares of
    the sub-branches listed in its fine-graining block, summed as integer
    numerators over M (a difference of two prefix sums, since the block is
    consecutive).
    """
    m_total = weights.denominator
    _, _, shares = equal_branch_derivation(m_total)
    prefix = shares.prefix
    ends = accumulate(weights.numerators)
    return [Fraction(prefix[end] - prefix[end - m], m_total) for m, end in zip(weights.numerators, ends)]
