"""Exception types shared across the toolkit, and the readers of caller input.

All of these subclass :class:`ValueError` through a common base so callers
can catch everything the toolkit raises with one clause, while the CLI can
surface the specific class name in its error messages.  Messages name an
int too long to print by its bit length (``_shown``).

Each kind of caller input is read by one reader, which raises the caller's
error class for anything else: ``_integer`` reads an int through
``operator.index``, ``_real`` a ``numbers.Real`` within float range (NaN and
the infinities pass, for the caller's own bound), and ``_sequence`` any
iterable but a ``str``, ``bytes`` or ``bytearray``, as a tuple.  Whole
arrays are read by ``states._numeric_array`` and norms checked by
``states._check_unit``.

Out of contract, so free to raise anything else: an object of the wrong
type where a state, decomposition, unitary, ``RationalWeights``, term,
expr, transform tag, term set, store or frame is expected (a tag's indices
and phases included, which must be hashable as its tuples are), and a flag
that is not a bool, such as ``make_state``'s ``normalize`` or
``check_envariance``'s ``up_to_phase``.
"""

from contextlib import suppress
from numbers import Real
from operator import index

# Error messages name an int of more bits than this by its bit length: printing
# one of more than 4,300 digits raises ``ValueError``, and a long one floods stderr.
_SHOWN_BITS = 256


def _too_long(value) -> bool:
    if isinstance(value, (tuple, list)):  # one holding such an int at any depth
        return any(map(_too_long, value))
    return isinstance(value, int) and value.bit_length() > _SHOWN_BITS


def _shown(value, show=str) -> str:
    """``show(value)``, with each int of more than ``_SHOWN_BITS`` bits named by its bit length."""
    if isinstance(value, (tuple, list)) and _too_long(value):
        return "(" + ", ".join(map(_shown, value)) + ")"
    if _too_long(value):
        return f"<{'negative ' if value < 0 else ''}{value.bit_length()}-bit integer>"
    return show(value)


def _integer(value, what: str, error: type) -> int:
    """``value`` as an int, as ``operator.index`` reads one; anything else raises
    ``error``, as "``what`` ``value`` is not an integer"."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} {_shown(value, repr)} is not an integer") from None


def _real(value, what: str, error: type) -> float:
    """``value`` as a float when it is a ``numbers.Real`` within float range, NaN
    and the infinities included; anything else raises ``error``."""
    with suppress(OverflowError):  # an int or a fraction past float range
        if isinstance(value, Real):
            return float(value)
    raise error(f"{what} {_shown(value, repr)} is not a real number within float range")


def _sequence(value, what: str, error: type) -> tuple:
    """The items of ``value`` as a tuple; a ``str``, ``bytes``, ``bytearray`` or
    anything that is not iterable raises ``error``."""
    with suppress(TypeError):  # not iterable
        if not isinstance(value, (str, bytes, bytearray)):  # not read as its characters
            return tuple(value)
    raise error(f"{what} must be a sequence, got {_shown(value, repr)}")


class EnvarkitError(ValueError):
    """Base class for every validation and verdict error raised here."""


class ZeroState(EnvarkitError):
    """All amplitudes are zero; no direction to normalize."""


class NotNormalized(EnvarkitError):
    """State norm deviates from 1 beyond tolerance and rescaling was not requested."""


class NotUnitary(EnvarkitError):
    """Matrix fails the U†U = I check on construction."""


class DimensionMismatch(EnvarkitError):
    """Operands have incompatible tensor-factor dimensions."""


class NonOrthonormalBasis(EnvarkitError):
    """Supplied basis vectors are not orthonormal within tolerance."""


class IndexOutOfRange(EnvarkitError):
    """A 1-based basis or branch index falls outside the valid range."""


class UnevenCoefficients(EnvarkitError):
    """Swapped branches carry different Schmidt coefficients."""


class UnknownTerm(EnvarkitError):
    """Probability term was never registered with the equality store."""


class IncompleteDerivation(EnvarkitError):
    """Branch probabilities are not all in one class; no numbers are emitted."""


class NoRationalFit(EnvarkitError):
    """No common denominator within the requested bound approximates the weights."""


class WeightMismatch(EnvarkitError):
    """Rational weights are inconsistent (wrong count or sum)."""


class ParseError(EnvarkitError):
    """Input (a file, an inline spec or a constructor argument) breaks its schema."""
