"""Exception hierarchy shared across the solver library.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, numeric failures exit 4.
"""


class ContractSolverError(Exception):
    """Base class for all library errors."""


class ValidationError(ContractSolverError):
    """A constructed object or configuration violates an invariant."""


class InvalidConfidence(ValidationError):
    """Confidence level outside the open interval (0, 1)."""


class GridTooLarge(ValidationError):
    """A requested brute-force grid exceeds the evaluation budget."""


class ParseError(ContractSolverError):
    """A config or data file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
        if line is not None:
            prefix += f"{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class DataError(ContractSolverError):
    """Problem with input data files or sample sets."""


class EmptySampleSet(DataError):
    """A sample set with zero observations was supplied."""


class SizeMismatch(DataError):
    """Two paired vectors have different lengths."""


class CountExceedsN(DataError):
    """More replacement positions requested than samples available."""


class NumericError(ContractSolverError):
    """A numeric evaluation failed on the supplied point."""


class NonPositiveLogArgument(NumericError):
    """The benefit term's log argument is not strictly positive."""

    def __init__(self, message, sample_index=None):
        self.sample_index = sample_index
        super().__init__(message)


class NonMonotoneLatencies(NumericError):
    """A latency vector violates the nondecreasing ordering requirement."""
