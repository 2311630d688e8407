"""Exception types shared across the package."""


class CpmrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CpmrError):
    """Invalid or inconsistent configuration."""


class DataError(CpmrError):
    """Malformed input data or an invalid dataset state."""


class ParseError(DataError):
    """A record in an input stream could not be parsed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DataFormatError(DataError):
    """A dataset or checkpoint file that is corrupt, invalid or of another format."""


class DegenerateSpanError(DataError):
    """All events fall on a single day, so time cannot be normalized."""


class SequencingError(CpmrError):
    """Model recurrence called out of order (clock mismatch)."""


class ShapeError(CpmrError):
    """Operands with incompatible shapes passed to a tensor op."""


class NumericalError(CpmrError):
    """Training diverged (non-finite loss) or another numeric failure."""
