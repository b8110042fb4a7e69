"""Exception hierarchy.

Two families matter to the CLI: validation errors (bad config or arguments,
exit code 1) and data errors (inputs that exist but cannot be used, exit
code 2). An output the CLI cannot write also exits 2. Everything derives
from RuleScreenError so library users can catch one type.
"""


class RuleScreenError(Exception):
    """Base class for all package errors."""


class ValidationError(RuleScreenError):
    """Bad configuration or arguments; maps to exit code 1."""


class DataError(RuleScreenError):
    """Unusable or inconsistent input data; maps to exit code 2."""


# panel
class EmptyPanel(DataError):
    pass


class NonPositiveModalities(ValidationError):
    pass


class SpecMismatch(DataError):
    pass


class MalformedRow(DataError):
    """A CSV record with too few cells or a cell that does not parse."""


class DuplicateRow(DataError):
    """A CSV record whose (date, stock_id) key an earlier record holds."""


class InputChanged(DataError):
    """An input file whose bytes changed between its hash and its parse."""


class BadSplitPoint(ValidationError):
    pass


# rules
class DimensionMismatch(ValidationError):
    pass


class EmptyLearningSet(DataError):
    pass


class NoActivations(DataError):
    pass


# aggregate
class NonFiniteLoss(DataError):
    pass


# backtest
class EmptyAfterFilter(DataError):
    pass


class NoPopulatedSector(DataError):
    pass


class MissingPriceData(DataError):
    pass


class GridMismatch(DataError):
    pass


class InsufficientHistory(DataError):
    pass


class UnknownLearningYear(ValidationError):
    pass


# synth
class InconsistentSpec(ValidationError):
    pass


# cli
class ConfigError(ValidationError):
    pass


class OutputError(RuleScreenError):
    """An output that cannot be written."""
