"""Exception hierarchy shared by every module in the package."""


class CertisqrtError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CertisqrtError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class UsageError(CertisqrtError):
    """An operation was applied to inputs it was not meant for."""


class ProfileMismatch(UsageError):
    """Binary operation over values that belong to different grids."""


class RangeOverflow(CertisqrtError):
    """Exact result falls outside the representable range."""


class DivisionByZero(CertisqrtError, ZeroDivisionError):
    """Grid division by the zero grid value."""


class MantissaRange(CertisqrtError):
    """Mantissa outside the open interval required for composition."""


class ExponentRange(CertisqrtError):
    """Exponent outside the range admitted by the profile."""


class SeedContractError(CertisqrtError):
    """A seed value violates sqrt(y) <= seed <= y."""


class IterationBudgetError(CertisqrtError):
    """Requested iteration count is below the legal minimum."""


class EpsTooSmall(CertisqrtError):
    """Accuracy target unreachable: no iteration count can satisfy both
    the convergence requirement and the rounding-error budget."""


class NoFeasibleEps(CertisqrtError):
    """No grid accuracy satisfies the requested constraint set."""


class ResourceLimit(CertisqrtError):
    """A configured size cap (e.g. maximum table length) was exceeded."""


class InternalInvariantError(CertisqrtError):
    """A state the verified algorithms cannot reach was observed; reaching
    it falsifies the correctness argument rather than the input."""
