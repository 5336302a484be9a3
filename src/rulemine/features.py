"""Per-item integer counts and their ranking, feature selection, union and projection."""

from __future__ import annotations

from .apriori import min_count
from .core import Record, TransactionSet
from .errors import ConfigError, UndefinedSupportError


class FrequencyMap(Record):
    """item id -> count over one TransactionSet of n_transactions rows."""

    def __init__(self, counts: dict[int, int], n_transactions: int):
        self.counts = counts
        self.n_transactions = n_transactions

    def ranked(self) -> list[int]:
        """Item ids by descending count, ties broken by ascending id."""
        return sorted(self.counts, key=lambda i: (-self.counts[i], i))


def item_frequencies(ts: TransactionSet) -> FrequencyMap:
    """Frequency of every item over ts's transactions, zero-frequency items
    included; to count a subset of them, ``ts.restrict`` it first."""
    n = ts.n_transactions
    if n == 0:
        raise UndefinedSupportError("frequencies are undefined over an empty transaction set")
    return FrequencyMap({i: ts.cover_bits(i).bit_count() for i in ts.item_ids()}, n)


def select_features(freq: FrequencyMap, threshold: float) -> list[int]:
    """Items with frequency strictly above threshold.

    Ordered by descending frequency, ties broken by ascending item id.
    """
    if not 0 <= threshold <= 1:
        raise ConfigError(f"feature threshold must be in [0,1], got {threshold}")
    need = min_count(threshold, strict=True)(freq.n_transactions)
    return [i for i in freq.ranked() if freq.counts[i] >= need]


def union_features(a: list[int], b: list[int]) -> list[int]:
    """Order-preserving union: all of a, then items of b not already in a."""
    seen = set(a)
    return list(a) + [i for i in b if i not in seen]


def project(ts: TransactionSet, features: list[int]) -> TransactionSet:
    """TransactionSet restricted to the given item covers; rows unchanged."""
    return ts.restrict(ts.rows, features)
