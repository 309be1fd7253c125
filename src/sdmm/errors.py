"""Exception types shared across the library.

Every error raised on purpose by this package derives from SdmmError, so
callers (and the CLI) can distinguish usage problems from genuine bugs.
"""


class SdmmError(Exception):
    """Base class for all errors raised by this package."""


class BadSpec(SdmmError):
    """A field/scheme/straggler spec string could not be parsed."""


class NotPrime(SdmmError):
    """The requested field characteristic is not prime."""


class DegreeZero(SdmmError):
    """The requested extension degree is smaller than 1."""


class NotIrreducible(SdmmError):
    """An explicitly supplied modulus polynomial is not irreducible."""


class NoSuchRoot(SdmmError):
    """No primitive M-th root of unity exists in the field."""


class NoSuchSubgroup(SdmmError):
    """The multiplicative group has no subgroup of the requested order."""


class DivisionByZero(SdmmError):
    """Multiplicative inverse of zero was requested."""


class NotPrimitiveRoot(SdmmError):
    """The supplied element is not a primitive M-th root of unity."""


class ShapeMismatch(SdmmError):
    """Matrix or block dimensions are incompatible."""


class SingularSystem(SdmmError):
    """A linear system that must be invertible is rank deficient."""


class BadD(SdmmError):
    """The common difference D violates gcd(D, M) = 1 or D <= M."""


class BadR(SdmmError):
    """The gap parameter r is outside [1, min(KM, T)]."""


class BudgetExceeded(SdmmError):
    """An exhaustive enumeration would exceed the configured cap."""


class BudgetExhausted(SdmmError):
    """A randomized search used up its budget without success.

    Carries a diagnostics dict {"fields": [...], "attempts": n}: one entry
    per field searched, with its attempts, its decode and security
    failure counts and the gate that stopped it (or None), and the total
    attempts over all fields.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ZeroEvaluationPoint(SdmmError):
    """An evaluation point is zero where non-zero points are required."""


class PlanInvalid(SdmmError):
    """An evaluation plan fails a structural precondition."""


class DecodeFailed(SdmmError):
    """Decoding completed but produced an inconsistent result."""


class InconsistentResponses(DecodeFailed):
    """The responses overdetermine the product and disagree with each other."""


class InsufficientResponses(SdmmError):
    """Too few worker responses to run any decoding path."""


class OutOfRange(SdmmError):
    """A parameter lies outside the applicable range of a formula."""
