"""Exception types shared across the package."""


class CircleCombError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CircleCombError):
    """A numeric argument lies outside its admissible range."""


class OutOfDomain(CircleCombError):
    """A physical coordinate lies outside the interval it was declared on."""


class NonIntegrableInput(CircleCombError):
    """The requested integral crosses a non-integrable singularity."""


class QuadratureFailure(CircleCombError):
    """Panel refinement exhausted its budget before reaching the tolerance,
    or met an integrand without a finite value."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class UndefinedHere(CircleCombError):
    """The operation is undefined at the requested point."""


class EpsilonBelowResolution(CircleCombError):
    """The filter window is narrower than the grid spacing."""


class NoConvergence(CircleCombError):
    """An extrapolated limit failed to settle."""


class UnknownName(CircleCombError):
    """No catalog entry is registered under the requested name."""


class BadParams(CircleCombError):
    """Catalog entry parameters fail validation."""


class NotAvailable(CircleCombError):
    """The requested closed form does not exist for this entry."""
