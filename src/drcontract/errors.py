"""Exception hierarchy shared across the solver library.

An error's family is its exit code: the CLI maps a ValidationError (a bad
configuration) to exit 2, a DataError (a bad data file or sample set) to
exit 3 and a NumericError (an evaluation that failed) to exit 4.  A family
has a subclass only where code catches that subclass by name or reads one
of its fields: ParseError carries the path and line of a file that does not
parse, and NonPositiveLogArgument the index of the point whose log argument
is not positive.
"""


class ContractSolverError(Exception):
    """Base class for all library errors."""


class ValidationError(ContractSolverError):
    """A constructed object or configuration violates an invariant."""


class DataError(ContractSolverError):
    """Problem with input data files or sample sets."""


class ParseError(DataError):
    """A config or data file could not be parsed.  The CLI reports one in
    the config file as a config error."""

    def __init__(self, message, path, line=None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


class NumericError(ContractSolverError):
    """A numeric evaluation failed on the supplied point."""


class NonPositiveLogArgument(NumericError):
    """The log argument is not strictly positive at point ``sample_index``:
    a sample in a score or pinned solve; in a robust solve or the oracle,
    the support floor at 0 and anchor k - 1's projection at k >= 1."""

    def __init__(self, message, sample_index):
        self.sample_index = sample_index
        super().__init__(message)
