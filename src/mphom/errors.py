"""Exception hierarchy shared across the package.

Parse errors are split into one class per defect so that callers (and the
CLI) can distinguish them without string matching.
"""


class MphomError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(MphomError):
    """Degrees of different lengths were compared or combined."""


class DegreeOverflowError(MphomError):
    """A degree coordinate left the supported integer range."""


class GradingError(MphomError):
    """A matrix entry violates the row-degree <= column-degree constraint."""


class EmptyPresentationError(MphomError, ValueError):
    """An operation that reads degrees got presentations with none (no
    generator and no relation), so there is no bound to take."""


class FieldMismatchError(MphomError):
    """Two objects over different prime fields were combined."""


class ResourceCapError(MphomError):
    """A configurable resource limit (e.g. oracle grid size) was exceeded."""


class CheckMismatchError(MphomError):
    """Cross-validation between algorithms produced disagreeing answers."""


class ParseError(MphomError):
    """Base class for file-format errors; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class HeaderError(ParseError):
    """Malformed or missing file header."""


class FieldArgumentError(ParseError):
    """A --field value on the command line is not a prime below 2^63."""


class SizeArgumentError(ParseError):
    """A size argument on the command line (--d, --gens, ...) is out of
    range."""


class FlagConflictError(ParseError):
    """Two command-line flags that cannot be used together."""


class DegreeArityError(ParseError):
    """A degree does not have exactly d coordinates."""


class CoefficientRangeError(ParseError):
    """A coefficient is >= p (coefficients are written in [1, p))."""


class ZeroCoefficientError(ParseError):
    """A stored coefficient reduces to zero mod p."""


class UnsortedRowsError(ParseError):
    """Sparse entries of a column are not in strictly increasing row order."""


class GradingParseError(ParseError):
    """A parsed entry violates the grading constraint."""
