"""Exception types shared across the library."""


class QuantcertError(Exception):
    """Base class for every error raised by this package."""


class NonPrimitiveRoot(QuantcertError):
    """The root selector is not coprime to the root order."""


class DegenerateDenominator(QuantcertError):
    """A sign computation hit a factor that is exactly zero."""


class InvalidColor(QuantcertError):
    """A color is outside the palette of the given level."""


class InvalidGraph(QuantcertError):
    """A graph violates the trivalence or indexing contract."""


class GraphParseError(QuantcertError):
    """A graph description string could not be parsed.

    Carries the offending token and its position so command-line callers
    can point at the exact spot.
    """

    def __init__(self, message: str, token: str = "", position: int = -1):
        super().__init__(message)
        self.token = token
        self.position = position


class DisconnectedGraph(QuantcertError):
    """A configuration graph must be connected."""


class NonHyperbolic(QuantcertError):
    """The surface (g, n) has non-negative Euler characteristic."""


class InvariantViolation(QuantcertError):
    """An internal consistency check failed; indicates a bug, not bad input."""
