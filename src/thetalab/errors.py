"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class,
and every refusal the package raises is one of them.  ValueError, KeyError
and TypeError reach a caller only from numpy or json.
"""


class ThetalabError(Exception):
    """Base class for all package-specific errors."""


# -- finite fields ------------------------------------------------------


class NotPrime(ThetalabError):
    """Field characteristic is not a prime."""


class Overflow(ThetalabError):
    """Requested field order exceeds the supported cap."""


class DivisionByZero(ThetalabError):
    """Multiplicative inverse of zero requested."""


class OrderUnavailable(ThetalabError):
    """No element of the requested multiplicative order exists."""


# -- graphs --------------------------------------------------------------


class LoopRejected(ThetalabError):
    """Edge list contains a self-loop."""


class IndexOutOfRange(ThetalabError):
    """Vertex index outside [0, n)."""


class ComplexityRefused(ThetalabError):
    """Exact search would exceed its work cap."""


class PreconditionViolated(ThetalabError):
    """Input fails a documented precondition of the operation."""


# -- numerics ------------------------------------------------------------


class ConvergenceFailure(ThetalabError):
    """Iterative eigensolver failed to converge within its iteration cap."""


class GapNotReached(ThetalabError):
    """Solver hit its iteration cap before closing the requested gap.

    Carries the partial result so callers can still use the certificates.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NoEdges(ThetalabError):
    """Spectral bound undefined for an edgeless graph."""


# -- representations -----------------------------------------------------


class HandleOrthogonalToVector(ThetalabError):
    """Handle is orthogonal to some representation vector."""


class RepInvalid(ThetalabError):
    """Vector system is not a valid orthonormal representation."""


class DimensionMismatch(ThetalabError):
    """Representation size does not match the target graph."""


class NotACliqueCover(ThetalabError):
    """Vertex partition is not a partition into cliques."""


class UnsupportedPattern(ThetalabError):
    """Forbidden-pattern description not recognized."""
