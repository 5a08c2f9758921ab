"""Exception hierarchy shared by all nsbf modules.

Each class carries the process exit code that the CLI returns for it: 2
for bad input, 3 (the default) for evaluation errors, 4 when the
eigenvalue scan runs out, 5 when the reference integrator fails.
"""


class NsbfError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ConfigError(NsbfError):
    """Invalid run configuration (bad flags, malformed config file, ...)."""

    exit_code = 2


class GridError(NsbfError):
    """Invalid grid parameters (b not positive and finite, M too small or
    not divisible by 6, values that do not match the grid)."""

    exit_code = 2


class ExpressionSyntaxError(NsbfError):
    """Potential expression could not be parsed.

    Carries the byte offset of the failure and a description of what was
    expected there.
    """

    exit_code = 2

    def __init__(self, message: str, offset: int, expected: str = ""):
        self.offset = offset
        self.expected = expected
        detail = f" at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(message + detail)


class ExpressionEvalError(NsbfError):
    """Evaluation of the potential failed (domain error, overflow, a sample
    that is not finite)."""


class ConvergenceError(NsbfError):
    """An iterative scheme did not converge within its iteration budget."""


class NearVanishingError(NsbfError):
    """A homogeneous solution gets too close to zero for the recursive
    integrals to be trustworthy."""


class LimitError(NsbfError):
    """A documented implementation limit was exceeded (order caps, overflow
    guards)."""


class ZeroOmegaError(NsbfError):
    """An operation that divides by the spectral parameter received omega = 0."""


class RangeExhaustedError(NsbfError):
    """The eigenvalue scan range was exhausted before finding the requested
    number of eigenvalues."""

    exit_code = 4


class OracleError(NsbfError):
    """The built-in reference integrator failed to reach its tolerance."""

    exit_code = 5
