"""Level-wise Apriori mining over the vertical transaction store.

Support counting reuses the parent itemset's cover: the cover of a
k-candidate is the (k-1)-prefix cover intersected with the last item's
cover, so each level costs one bitset AND per candidate instead of a full
database scan. Output is identical to naive scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import Itemset, TransactionSet
from .errors import ConfigError, InternalError, UndefinedSupportError


@dataclass
class MiningConfig:
    min_support: float = 0.001
    min_confidence: float = 0.0
    min_lift: float = 0.0
    max_len: int | None = None
    target_consequent: Itemset | None = None

    def __post_init__(self):
        if not 0 <= self.min_support <= 1:
            raise ConfigError(f"min_support must be in [0,1], got {self.min_support}")
        if not 0 <= self.min_confidence <= 1:
            raise ConfigError(f"min_confidence must be in [0,1], got {self.min_confidence}")
        if not 0 <= self.min_lift < math.inf:
            raise ConfigError(f"min_lift must be finite and >= 0, got {self.min_lift}")
        if self.max_len is not None and self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")


@dataclass
class FrequentItemsets:
    """All frequent itemsets with exact counts, keyed by canonical tuple."""

    counts: dict[Itemset, int]
    n_transactions: int

    def support(self, s: Itemset) -> Fraction:
        return Fraction(self.counts[s], self.n_transactions)

    def level(self, k: int) -> dict[Itemset, int]:
        return {s: c for s, c in self.counts.items() if len(s) == k}

    def max_level(self) -> int:
        return max((len(s) for s in self.counts), default=0)


def exact(threshold: float | Fraction) -> Fraction:
    """A threshold as the exact decimal the caller wrote.

    Floats go through their shortest repr, so 0.1 is 1/10 and not its
    nearest binary float; every threshold predicate compares against this.
    """
    if isinstance(threshold, float):
        return Fraction(str(threshold))
    return Fraction(threshold)


def required_count(min_support: float, n: int) -> int:
    """Smallest integer count satisfying count/n >= min_support, exactly."""
    return math.ceil(exact(min_support) * n)


def generate_candidates(frequent_prev: Iterable[Itemset]) -> set[Itemset]:
    """Apriori join + prune: (k-1)-itemsets -> candidate k-itemsets.

    Joins pairs sharing their first k-2 items (canonical prefix order),
    then drops any candidate with an infrequent (k-1)-subset.
    """
    prev = sorted(set(frequent_prev))
    if not prev:
        return set()
    k_minus_1 = len(prev[0])
    if k_minus_1 < 1 or any(len(s) != k_minus_1 for s in prev):
        raise InternalError("generate_candidates: mixed or empty itemset sizes")
    prev_set = set(prev)

    candidates: set[Itemset] = set()
    for a_idx, a in enumerate(prev):
        for b in prev[a_idx + 1 :]:
            if a[:-1] != b[:-1]:
                break  # sorted order: no later b shares this prefix
            cand = a + (b[-1],)
            # prune: every (k-1)-subset must be frequent
            if all(
                cand[:j] + cand[j + 1 :] in prev_set for j in range(len(cand))
            ):
                candidates.add(cand)
    return candidates


def count_support(ts: TransactionSet, candidates: Iterable[Itemset]) -> dict[Itemset, int]:
    """Exact cover size of each candidate by bitset intersection."""
    out = {}
    for cand in candidates:
        bits = (1 << ts.n_transactions) - 1
        for i in cand:
            bits &= ts.cover_bits(i)
        out[cand] = bits.bit_count()
    return out


def mine_frequent(ts: TransactionSet, cfg: MiningConfig) -> FrequentItemsets:
    """All itemsets with support >= cfg.min_support (and size <= max_len)."""
    n = ts.n_transactions
    if n == 0:
        raise UndefinedSupportError("cannot mine an empty transaction set")
    need = required_count(cfg.min_support, n)

    counts: dict[Itemset, int] = {}
    covers: dict[Itemset, int] = {}
    level: list[Itemset] = []
    for i in ts.item_ids():
        bits = ts.cover_bits(i)
        c = bits.bit_count()
        if c >= need:
            s = (i,)
            counts[s] = c
            covers[s] = bits
            level.append(s)

    k = 2
    while level and (cfg.max_len is None or k <= cfg.max_len):
        next_level: list[Itemset] = []
        for cand in sorted(generate_candidates(level)):
            bits = covers[cand[:-1]] & ts.cover_bits(cand[-1])
            c = bits.bit_count()
            if c >= need:
                counts[cand] = c
                covers[cand] = bits
                next_level.append(cand)
        level = next_level
        k += 1
    return FrequentItemsets(counts, n)
