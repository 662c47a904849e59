"""Exception hierarchy shared by all squot modules: the class decides
the CLI's exit code (an InputError 2, any other SquotError 3)."""


class SquotError(Exception):
    """Base class for all squot-specific errors."""


class InputError(SquotError, ValueError):
    """Caused by what the caller asked for; a ValueError too."""


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
