"""Exception types shared across the toolkit.

All of these subclass :class:`ValueError` through a common base so callers
can catch everything the toolkit raises with one clause, while the CLI can
surface the specific class name in its error messages.
"""


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
