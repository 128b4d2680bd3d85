"""Exception hierarchy shared by all pairsolve modules.

Each class carries the command-line exit code for its failures in
``exit_code``: 2 validation failure, 3 problem too large, 4 unsupported
shape, 5 solver failure.
"""


class PairsolveError(Exception):
    """Base class for all errors raised by pairsolve."""

    exit_code = 2


class DegenerateEta(PairsolveError):
    """Two eta parameters coincide within the degeneracy tolerance."""


class SingularKernel(PairsolveError):
    """Trigonometric kernel evaluated where sin(d_eta) is numerically zero."""


class SchemaError(PairsolveError):
    """A model document does not conform to the expected JSON layout.

    The message names the offending field path.
    """


class InvariantViolation(PairsolveError):
    """A structural invariant of a model or basis does not hold."""


class TooLarge(PairsolveError):
    """Requested object exceeds a fixed size limit."""

    exit_code = 3


class PatternMismatch(PairsolveError):
    """Two occupation patterns have different pair counts."""


class DimensionMismatch(PairsolveError):
    """Vector length does not match the basis dimension."""


class NoConvergence(PairsolveError):
    """Iterative eigensolver did not converge within the iteration budget.

    Carries the best available estimates in ``energies`` and ``residual``.
    """

    exit_code = 5

    def __init__(self, message, energies=None, residual=None):
        super().__init__(message)
        self.energies = energies
        self.residual = residual


class OddN(PairsolveError):
    """The symmetric infinite algorithm requires an even number of levels."""

    exit_code = 4


class InfeasibleTarget(PairsolveError):
    """Requested pair number cannot be realized on the given levels."""

    exit_code = 4


class EmptySector(PairsolveError):
    """No superblock product state carries the targeted total pair number."""

    exit_code = 4


class NotNormalized(PairsolveError):
    """A state vector expected to have unit norm does not."""
