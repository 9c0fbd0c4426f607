"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user input: parameters, windows, grids, config keys."""


class EmptyWindowError(ValidationError):
    """Detection window missed all emission lines (self overlaps underflow)."""


class ConvergenceError(RuntimeError):
    """A numerical search stopped short of its target.

    Carries the last two estimates, where the search has them, so callers
    can judge how far apart they still were.
    """

    def __init__(self, message, last_estimates=None):
        super().__init__(message)
        self.last_estimates = last_estimates
