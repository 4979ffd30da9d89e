"""Exception hierarchy.

DomainError covers bad inputs (CLI exit code 2).  InternalConsistencyError
covers situations the underlying theorems rule out; seeing one means the
engine itself is broken (CLI exit code 3).
"""


class BraidPlumbError(Exception):
    """Base class for all package errors."""


class DomainError(BraidPlumbError):
    """Invalid input for the requested operation."""


class InternalConsistencyError(BraidPlumbError):
    """A certified impossibility occurred; indicates an engine bug."""


class InvalidParameter(DomainError):
    """A numeric argument lies outside its documented range."""


class InvalidGenerator(DomainError):
    """Braid letter outside the range 1..strands-1."""


class DisconnectedWord(DomainError):
    """Some generator never occurs, so the closure is a split link."""


class IllegalMove(DomainError):
    """Rewrite move preconditions violated at the stated position."""


class TrivialLink(DomainError):
    """The closure destabilizes to the trivial link."""


class SearchBudgetExceeded(DomainError):
    """A bounded search ran out of nodes.

    Nothing in the package raises it; the name stays importable for
    callers that catch it.
    """


class CertificateRejected(DomainError):
    """A certificate's JSON lacks a field, holds a value of the wrong type,
    or holds counts that contradict each other."""


class EmptyCurve(DomainError):
    """Reduction killed the whole word: the curve is null-homotopic."""


class NotAPath(DomainError):
    """A curve's word is not a closed edge path on the surface."""


class NonEmbeddedCore(DomainError):
    """Dehn twist cores must be embedded circles."""


class NotDivisible(DomainError):
    """Exact Laurent division requested with a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotCoprime(DomainError):
    """Torus knot formula needs coprime parameters."""


class ZeroPolynomial(DomainError):
    """Operation undefined for the zero polynomial."""


class NotAKnot(DomainError):
    """The closure has more than one component."""


class TrivialKnot(DomainError):
    """The closure is the unknot (genus zero)."""


class DisjointnessFailure(InternalConsistencyError):
    """A deplumbing disjointness check failed; ruled out by theory."""
