"""Exception hierarchy shared by all lebquad modules."""


class LebquadError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(LebquadError):
    """Malformed or inconsistent input data (bad values, mismatched shapes).

    ``line`` carries a 1-based line number when the error originates from a
    parsed file, ``record`` a 1-based record number when it names one bad
    sample of a SampleSet; both are None otherwise. ``reason`` is the
    message without either.
    """

    def __init__(self, message, line=None, record=None):
        self.reason, self.line, self.record = message, line, record
        if line is not None:
            message = f"line {line}: {message}"
        if record is not None:
            message = f"{message} at record {record}"
        super().__init__(message)


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
