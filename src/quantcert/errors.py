"""Exception types shared across the library.

Bad input raises a ``UsageError`` subclass where the rule it breaks lives;
no module catches one to re-raise it as another.  ``cli.main`` alone maps
them to exit codes: a ``UsageError`` to 2, every other ``QuantcertError``
to 3.  A ``UsageError`` is also a ``ValueError``.
"""


class QuantcertError(Exception):
    """Base class for every error raised by this package."""


class UsageError(QuantcertError, ValueError):
    """Bad input: the caller's fault (exit code 2 on the command line)."""


class NonPrimitiveRoot(QuantcertError):
    """The root selector is not coprime to the root order."""


class InvalidColor(UsageError):
    """A color is outside the palette of the given level."""


class InvalidGraph(UsageError):
    """A graph violates the trivalence or indexing contract."""


class GraphParseError(UsageError):
    """A graph description string could not be parsed.

    Carries the offending token and its position so command-line callers
    can point at the exact spot.
    """

    def __init__(self, message: str, token: str = "", position: int = -1):
        super().__init__(message)
        self.token = token
        self.position = position


class DisconnectedGraph(UsageError):
    """A configuration graph must be connected."""


class NonHyperbolic(UsageError):
    """The surface (g, n) has non-negative Euler characteristic."""


class InvariantViolation(QuantcertError):
    """An internal consistency check failed; indicates a bug, not bad input."""
