"""Exception types shared across the package.

The command line maps these to exit codes: configuration errors exit
with 2, numerical failures with 3, infeasible instances with 4.
"""

__all__ = [
    "ConfigurationError",
    "InfeasibleError",
    "NumericalError",
    "IterationError",
]


class ConfigurationError(ValueError):
    """Invalid configuration input: bad file contents, unknown keys,
    out-of-range parameters, or misuse guards such as oversized
    enumeration requests."""


class InfeasibleError(ValueError):
    """The requested instance cannot be carried out: empty selection,
    insufficient assigned rows, or a workload inconsistent with the
    mechanism."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed: argument outside a special
    function's domain, a singular or badly conditioned linear system,
    or a rank-deficient decode."""


class IterationError(NumericalError):
    """An iterative solver did not converge within its iteration
    budget.  Carries the best iterate found so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
