"""Per-item frequency computation and threshold-based feature selection."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .apriori import exact
from .core import TransactionSet
from .errors import ConfigError, UndefinedSupportError


@dataclass
class FrequencyMap:
    """item id -> (count, exact fraction) over one TransactionSet."""

    entries: dict[int, tuple[int, Fraction]]
    n_transactions: int

    def fraction(self, item_id: int) -> Fraction:
        return self.entries[item_id][1]


def item_frequencies(ts: TransactionSet, rows: int | None = None) -> FrequencyMap:
    """Frequency of every item of ts, zero-frequency items included.

    ``rows`` restricts the count to the transactions set in that bitset.
    """
    if rows is None:
        rows = (1 << ts.n_transactions) - 1
    n = rows.bit_count()
    if n == 0:
        raise UndefinedSupportError("frequencies are undefined over an empty transaction set")
    entries = {}
    for i in ts.item_ids():
        count = (ts.cover_bits(i) & rows).bit_count()
        entries[i] = (count, Fraction(count, n))
    return FrequencyMap(entries, n)


def select_features(freq: FrequencyMap, threshold: float) -> list[int]:
    """Items with frequency strictly above threshold.

    Ordered by descending frequency, ties broken by ascending item id.
    """
    if not 0 <= threshold <= 1:
        raise ConfigError(f"feature threshold must be in [0,1], got {threshold}")
    cut = exact(threshold)  # a frequency equal to the threshold is excluded
    picked = [i for i, (_, frac) in freq.entries.items() if frac > cut]
    picked.sort(key=lambda i: (-freq.entries[i][1], i))
    return picked


def union_features(a: list[int], b: list[int]) -> list[int]:
    """Order-preserving union: all of a, then items of b not already in a."""
    seen = set(a)
    return list(a) + [i for i in b if i not in seen]


def project(ts: TransactionSet, features: list[int]) -> TransactionSet:
    """TransactionSet restricted to the given item covers; rows unchanged."""
    covers = {i: ts.cover_bits(i) for i in features}
    return TransactionSet(ts.n_transactions, covers)
