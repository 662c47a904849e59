"""Exception hierarchy shared by all squot modules."""


class SquotError(Exception):
    """Base class for all squot-specific errors."""


class InputError(SquotError):
    """Caused by what the user asked for; the CLI exits 2.  Any other
    SquotError is a failed verification, and the CLI exits 3."""


class ZeroWeight(InputError):
    """A weight vector contains a zero entry."""


class MalformedWeights(InputError):
    """A weight list is not a comma-separated list of integers."""


class ArgumentOutOfRange(InputError):
    """A numeric command-line argument is outside its allowed range."""


class ReconstructionMismatch(SquotError):
    """Verification coefficients of a rational reconstruction are nonzero.

    Signals a wrong denominator ansatz or an insufficient series prefix.
    """


class OracleMismatch(SquotError):
    """A computed Hilbert series disagrees with brute-force monomial counts."""


class ReciprocityMismatch(SquotError):
    """A computed Hilbert series breaks the reciprocity H(1/x) = x^s H(x)
    that its ring satisfies (Stanley's theorem for Gorenstein rings)."""


class ClosedFormMismatch(SquotError):
    """A Laurent coefficient or pole order disagrees with its closed form."""


class PartitionPointsMismatch(InputError):
    """Schur evaluation called with len(points) != len(partition)."""


class UnsupportedDimension(InputError):
    """Closed-form Laurent coefficient requested below its minimal n."""


class InsufficientCoefficients(InputError):
    """A Laurent expansion is too short for the requested constraint order."""


class NotApplicable(InputError):
    """An operation's precondition (e.g. integrality of 1/gamma0) fails."""
