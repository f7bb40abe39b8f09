"""Exception types shared across the package."""


class QuatFramesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QuatFramesError):
    """Operands have incompatible dimensions."""


class Singular(QuatFramesError):
    """A solve or inverse was handed a matrix whose smallest singular value
    is negligible against its Frobenius norm."""


class NotHermitian(QuatFramesError):
    """A spectral routine was handed a matrix that is not self-adjoint."""


class NotPositive(QuatFramesError):
    """A square root was requested of an operator with a negative eigenvalue."""


class PullbackFailed(QuatFramesError):
    """The eigenvectors of chi(S) did not pull back to a basis of H^n."""


class NotAFrame(QuatFramesError):
    """A dual or whitening construction needs an invertible frame operator."""


class NotAFrameOnSubspace(QuatFramesError):
    """Analyzers restricted to the stated subspace fail the frame inequality there."""


class InvalidWeight(QuatFramesError):
    """Fusion weights must be strictly positive."""


class HypothesisViolated(QuatFramesError):
    """A conversion's structural preconditions do not hold."""


class InvalidParams(QuatFramesError):
    """Perturbation parameters outside their admissible range."""


class ConditionViolated(QuatFramesError):
    """The smallness condition of a perturbation criterion fails."""


class ParseError(QuatFramesError):
    """Input file is not syntactically valid JSON of the expected shape."""


class ValidationError(QuatFramesError):
    """Input file parsed but violates the schema or its invariants."""
