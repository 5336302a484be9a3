"""Exception hierarchy shared across the package."""


class RuleMineError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RuleMineError):
    """Input file structure is invalid (header problems, missing columns)."""


class ParseError(RuleMineError):
    """A cell value could not be parsed; message carries row/column context."""


class ConfigError(RuleMineError):
    """A threshold or configuration value is out of its valid range."""


class InvalidItemError(RuleMineError):
    """An item id or name is unknown to the catalog / transaction set."""


class UndefinedSupportError(RuleMineError):
    """Support requested over an empty transaction set."""


class UndefinedMetricError(RuleMineError):
    """Metric requested with a zero antecedent or consequent support;
    ``pair`` is the rule's (X, Y) of item ids when one is known."""

    pair: tuple | None = None


class InconsistentSupportError(RuleMineError):
    """Joint support exceeds one of its marginal supports."""


class CapacityError(RuleMineError):
    """A count refused: more oracle subsets, mined itemsets or rule
    partitions than its limit."""


class InternalError(RuleMineError):
    """Internal contract violation; indicates a bug, not bad input."""
