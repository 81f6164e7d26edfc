"""Exception types shared across the toolkit.

All of these subclass :class:`ValueError` through a common base so callers
can catch everything the toolkit raises with one clause, while the CLI can
surface the specific class name in its error messages.  Messages name an
int too long to print by its bit length (``_shown``), and ``_integer`` reads
an int argument through ``operator.index``.
"""

from operator import index

# Error messages name an int of more bits than this by its bit length: printing
# one of more than 4,300 digits raises ``ValueError``, and a long one floods stderr.
_SHOWN_BITS = 256


def _too_long(value) -> bool:
    return isinstance(value, int) and value.bit_length() > _SHOWN_BITS


def _shown(value, show=str) -> str:
    """``show(value)``, with each int of more than ``_SHOWN_BITS`` bits named by its bit length."""
    if isinstance(value, (tuple, list)) and any(map(_too_long, value)):
        return "(" + ", ".join(map(_shown, value)) + ")"
    if _too_long(value):
        return f"<{'negative ' if value < 0 else ''}{value.bit_length()}-bit integer>"
    return show(value)


def _integer(value, what: str, error: type) -> int:
    """``value`` as an int, as ``operator.index`` reads one; anything else raises ``error``."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {type(value).__name__}") from None


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
