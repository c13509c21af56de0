"""Exception hierarchy shared by all lebquad modules."""


class LebquadError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(LebquadError):
    """Malformed or inconsistent input data (bad values, mismatched shapes).

    ``line`` carries a 1-based line number when the error originates from a
    parsed file, otherwise None.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigurationError(LebquadError):
    """Invalid configuration: bad order, basis too small, bad parameters."""


class ConditioningError(LebquadError):
    """Gram matrix is rank-deficient beyond the regularization budget."""

    def __init__(self, message, effective_rank=None):
        if effective_rank is not None:
            message = f"{message} (effective rank {effective_rank})"
        super().__init__(message)
        self.effective_rank = effective_rank


class RhoMismatchError(LebquadError):
    """A spectral density operator does not fit the run: wrong order or
    vectors that are not orthonormal."""
