"""Exception types shared across the package."""


class RootForgeError(Exception):
    """Base class for all rootforge errors."""


class UnsupportedType(RootForgeError):
    """Requested series/rank is outside the supported ADE range."""


class NotIrreducible(RootForgeError):
    pass


class NotIrreducibleParent(RootForgeError):
    pass


class NotPiSystem(RootForgeError):
    pass


class NotSymmetric(RootForgeError):
    pass


class NotD4(RootForgeError):
    pass


class UnrecognizedComponent(RootForgeError):
    """A diagram component matches no ADE or extended ADE shape."""


class TooLarge(RootForgeError):
    pass


class NotOrthogonal(RootForgeError):
    pass


class NotOrthogonalSeed(RootForgeError):
    pass


class NotMoset(RootForgeError):
    pass


class LabelingInfeasible(RootForgeError):
    """No moset labeling satisfies the structural constraints."""


class NotInMoset(RootForgeError):
    pass


class NotInEnhancedBasis(RootForgeError):
    pass


class Unsupported(RootForgeError):
    pass


class CapExceeded(RootForgeError):
    """Group enumeration exceeded the configured element cap."""


class OracleCapExceeded(CapExceeded):
    pass


class NoSuchRoot(RootForgeError):
    """A root index lies outside the system's table of roots."""


class NotEmbedding(RootForgeError):
    """A candidate map does not preserve absolute Cartan pairings."""


class MixedAmbient(RootForgeError):
    pass


class InvariantViolation(RootForgeError):
    """An internal consistency check failed; the result cannot be trusted."""
