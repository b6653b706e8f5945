"""Exception hierarchy shared by all modules."""


class AmplitudeLabError(Exception):
    """Base class for all package errors."""


class InvalidAlgebra(AmplitudeLabError):
    """Block dimension list is empty or contains a non-positive entry."""


class ShapeError(AmplitudeLabError):
    """Operands live on different algebras or have mismatched shapes."""


class NotPositive(AmplitudeLabError):
    """A matrix or functional required to be positive semidefinite is not."""


class NotFaithful(AmplitudeLabError):
    """Functional has a nontrivial kernel where a faithful one is required."""


class NotFactor(AmplitudeLabError):
    """Operation requires a functional living on a single matrix block."""


class NotQuotient(AmplitudeLabError):
    """Block assignment does not define a surjective unital *-homomorphism."""


class NotUnital(AmplitudeLabError):
    """Kraus family does not sum to the identity."""


class InvalidEmbedding(AmplitudeLabError):
    """Multiplicity matrix or unitaries violate the embedding invariants."""


class EmptyReduction(AmplitudeLabError):
    """Support reduction of the zero functional was requested."""


class SingularMeasure(AmplitudeLabError):
    """Weight vector vanishes on a block carrying mass."""


class InvalidCovariance(AmplitudeLabError):
    """Covariance form fails positivity or the imaginary-part condition."""


class DomainError(AmplitudeLabError):
    """Scalar argument outside its admissible range."""


class TooLarge(AmplitudeLabError):
    """Requested construction exceeds the configured size cap."""


class ParseError(AmplitudeLabError):
    """Malformed JSON input (bad schema, NaN/Inf, wrong lengths)."""


class SolverFailed(AmplitudeLabError):
    """A solver did not converge on, or could not resolve, finite input too large or badly scaled."""
