"""Exception types shared across the package."""


class QuatFramesError(Exception):
    """Base class for all errors raised by this package.  `exit_code` is
    the CLI's exit status for it: 2 for input that is malformed or outside
    the admissible range, 1 for a mathematical failure of valid input."""

    exit_code = 2


class DimensionMismatch(QuatFramesError):
    """Operands have incompatible dimensions."""


class Singular(QuatFramesError):
    """A solve or inverse was handed a matrix whose smallest singular value
    is negligible against its Frobenius norm."""

    exit_code = 1


class NotHermitian(QuatFramesError):
    """A spectral routine was handed a matrix that is not self-adjoint."""

    exit_code = 1


class NotPositive(QuatFramesError):
    """A square root was requested of an operator with a negative eigenvalue."""

    exit_code = 1


class NonFinite(QuatFramesError):
    """A matrix handed to LAPACK has inf or nan entries, such as a frame
    operator whose entries overflowed."""


class PullbackFailed(QuatFramesError):
    """The eigenvectors of chi(S) did not pull back to a basis of H^n."""

    exit_code = 1


class NotAFrame(QuatFramesError):
    """A dual or whitening construction needs an invertible frame operator."""

    exit_code = 1


class NotAFrameOnSubspace(QuatFramesError):
    """Analyzers restricted to the stated subspace fail the frame inequality there."""

    exit_code = 1


class InvalidWeight(QuatFramesError):
    """Fusion weights must be strictly positive."""


class HypothesisViolated(QuatFramesError):
    """A conversion's structural preconditions do not hold."""

    exit_code = 1


class InvalidParams(QuatFramesError):
    """Perturbation parameters outside their admissible range."""


class ConditionViolated(QuatFramesError):
    """The smallness condition of a perturbation criterion fails."""


class ParseError(QuatFramesError):
    """Input file is not syntactically valid JSON of the expected shape."""


class ValidationError(QuatFramesError):
    """Input file parsed but violates the schema or its invariants."""
