"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, everything else (runtime failures) exits 3.
"""


class EpcPinnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EpcPinnError, ValueError):
    """Invalid configuration: bad dimensions, unknown building type, bad flags."""


class DataError(EpcPinnError, ValueError):
    """Ingestion or input-file problem: missing columns, unparseable cells,
    duplicate keys, malformed JSON."""


class DomainError(EpcPinnError, ValueError):
    """A physical quantity outside its admissible domain (negative area,
    zero divisor in a ratio, non-positive heat loss where one is required)."""


class DimensionError(EpcPinnError, ValueError):
    """Array shape mismatch between two operands."""


class UsageError(EpcPinnError, RuntimeError):
    """API misuse: backward with a stale cache, fold reports that disagree."""


class TrainingError(EpcPinnError, RuntimeError):
    """Non-finite values or other failures during optimization; row is
    the first offending batch row, where known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class UndefinedMetricError(EpcPinnError, ValueError):
    """A metric that is mathematically undefined for the given inputs,
    e.g. R-squared of a constant truth vector."""
