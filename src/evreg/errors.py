"""Exception taxonomy.

Three families map onto the CLI exit codes: configuration problems (exit 2),
data problems (exit 3), and numeric failures during training (exit 4).
"""

from __future__ import annotations


class EvregError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EvregError):
    """A parameter or configuration value violates its contract."""


class DataError(EvregError):
    """An input series, event set, or file violates its contract."""


class NumericError(EvregError):
    """A numeric failure occurred while training or evaluating a model."""


# -- configuration ----------------------------------------------------------


class InvalidSpec(ConfigError):
    """A kernel or operator specification is malformed."""


class InvalidRange(ConfigError):
    """A scalar argument lies outside its allowed range."""


class InvalidFactor(ConfigError):
    """A downsampling factor is unusable for the given series."""


class InvalidConfig(ConfigError):
    """An experiment configuration file or mapping is malformed."""


class EmptyGrid(ConfigError):
    """A hyperparameter grid contains no candidate cells."""


# -- data -------------------------------------------------------------------


class EmptySeries(DataError):
    """A series has no channels or zero time steps."""


class LengthMismatch(DataError):
    """Two aligned sequences differ in length."""


class NonFiniteValue(DataError):
    """A stored series contains NaN or infinite samples."""


class NonFiniteInput(DataError):
    """An array handed to a numeric operator contains NaN or Inf."""


class InvalidEvents(DataError):
    """Events are unsorted, overlapping, of zero duration, or wrongly typed."""


class EventOutOfRange(DataError):
    """An event references a step outside [0, num_steps]."""


class InvalidProbability(DataError):
    """A probability sequence leaves the closed interval [0, 1]."""


class ShapeMismatch(DataError):
    """An array argument has a shape inconsistent with its contract."""


class ZeroKernel(DataError):
    """A target kernel is identically zero, so normalization is undefined."""


class EmptyTruth(DataError):
    """A metric was asked to score a class with no ground-truth events."""


class TooFewSeries(DataError):
    """A dataset is too small for the requested cross-validation split."""


class IoError(DataError):
    """A file could not be read or written."""


class ParseError(DataError):
    """A CSV file or a checkpoint could not be parsed.

    For a CSV file, carries the 1-based line and column of the first
    offending cell; a checkpoint has no lines, so line stays None.
    """

    def __init__(self, message: str, line: int | None = None, column: int = 0):
        where = "" if line is None else f"line {line}, column {column}: "
        super().__init__(where + message)
        self.line = line
        self.column = column


# -- numerics ---------------------------------------------------------------


class DivergedLoss(NumericError):
    """The training loss became NaN or infinite."""


class NonFiniteGradient(NumericError):
    """A gradient contains NaN or infinite entries."""


class NonFiniteParameters(NumericError):
    """Model parameters contain NaN or infinite entries."""
