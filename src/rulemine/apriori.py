"""Frequent itemset mining over the vertical transaction store.

``mine_frequent`` searches depth-first over prefix classes (Eclat, Zaki
2000) yet returns exactly the frequent itemsets of level-wise Apriori
(Agrawal & Srikant 1994). The class of a prefix P holds each frequent
P+(i,) with its cover; the cover of P+(i, j) is the AND of the covers of
P+(i,) and P+(j,), so each candidate costs one bitset AND and only the
covers along the current search path are alive. The search is one
recursion that starts at the class of the empty prefix, whose members
are the frequent single items. Items are taken in id order, so every
itemset comes out in canonical form.

With ``cfg.target_consequent`` T, rules need only the frequent Z that
contain T, Z minus T and T (the class-rule setting of CBA, Liu, Hsu & Ma
1998). The same search then runs over the items outside T, with each
cover ANDed with cover(T) and at most max_len - |T| deep: every X it
finds is recorded as X∪T with that count, and as X with the count of
its own cover, which the search carries beside the conditional one.

After a drop the covers keep the parse's row numbers; when over a
quarter of the rows are gone, the miner renumbers the kept ones once
(``TransactionSet.compact``) so each AND costs the kept rows, not the
parse's width.

The search records at most ``MAX_ITEMSETS`` itemsets. At a zero support
every itemset passes, so the lattice's size is known and a larger one is
refused before counting; otherwise the search stops with the same
``CapacityError`` once it has recorded more.

``generate_candidates`` is Apriori's candidate set by its definition:
every k-set whose (k-1)-subsets are all frequent. The miner does not use
it; it stays as the reference the tests and the bench's candidate
counter use. ``min_count`` is the one threshold predicate: it turns
every threshold into the least integer count that passes, reading a
float as the decimal of its shortest repr.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction

from .core import Itemset, Record, TransactionSet, canonical_itemset
from .errors import CapacityError, ConfigError, InternalError, UndefinedSupportError

# the most itemsets one search records, each about 150 bytes with its count
MAX_ITEMSETS = 1 << 21


class MiningConfig(Record):
    """The thresholds of one mining run, checked when it is built; a
    target_consequent is kept in canonical form (sorted, each item once)."""

    def __init__(
        self,
        min_support: float | Fraction = 0.001,
        min_confidence: float | Fraction = 0.0,
        min_lift: float | Fraction = 0.0,
        max_len: int | None = None,
        target_consequent: Itemset | None = None,
    ):
        if not 0 <= min_support <= 1:
            raise ConfigError(f"min_support must be in [0,1], got {min_support}")
        if not 0 <= min_confidence <= 1:
            raise ConfigError(f"min_confidence must be in [0,1], got {min_confidence}")
        if not 0 <= min_lift < math.inf:
            raise ConfigError(f"min_lift must be finite and >= 0, got {min_lift}")
        if max_len is not None and max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {max_len}")
        if target_consequent is not None:
            target_consequent = canonical_itemset(target_consequent)
            if not target_consequent:
                raise ConfigError("target_consequent must name at least one item")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.min_lift = min_lift
        self.max_len = max_len
        self.target_consequent = target_consequent


class FrequentItemsets(Record):
    """Frequent itemsets with exact counts, keyed by canonical tuple: all
    of them, or for a target T only each frequent Z containing T, Z minus T
    and T."""

    def __init__(self, counts: dict[Itemset, int], n_transactions: int):
        self.counts = counts
        self.n_transactions = n_transactions

    def level(self, k: int) -> dict[Itemset, int]:
        return {s: c for s, c in self.counts.items() if len(s) == k}

    def max_level(self) -> int:
        return max((len(s) for s in self.counts), default=0)


def min_count(threshold: float | Fraction, strict: bool = False) -> Callable[[int], int]:
    """total -> the least integer count whose ratio to total is >= threshold
    (> threshold when ``strict``): for the exact threshold p/q, that is
    ceil(p * total / q), or floor(p * total / q) + 1 when strict. A float
    means the decimal of its shortest repr, so 0.1 is 1/10 and not its
    nearest binary float."""
    if isinstance(threshold, float):
        threshold = repr(threshold)
    p, q = Fraction(threshold).as_integer_ratio()
    if strict:
        return lambda total: p * total // q + 1
    return lambda total: -(-p * total // q)


def generate_candidates(frequent_prev: Iterable[Itemset]) -> set[Itemset]:
    """Apriori's candidate k-itemsets: every k-set whose (k-1)-subsets
    are all in ``frequent_prev``. Each is some s of it grown by a later
    item of another, so only those are tested."""
    prev = set(frequent_prev)
    sizes = {len(s) for s in prev}
    if len(sizes) > 1 or 0 in sizes:
        raise InternalError("generate_candidates: mixed or empty itemset sizes")
    items = {i for s in prev for i in s}
    grown = {s + (i,) for s in prev for i in items if i > s[-1]}
    return {c for c in grown if all(c[:j] + c[j + 1 :] in prev for j in range(len(c)))}


def _too_many(found) -> CapacityError:
    """The refusal of a search over ``MAX_ITEMSETS``; ``found`` says how many it has."""
    return CapacityError(
        f"mining refuses {found} frequent itemsets (limit {MAX_ITEMSETS}):"
        " raise --min-support, lower --max-len or select fewer features")


def mine_frequent(ts: TransactionSet, cfg: MiningConfig) -> FrequentItemsets:
    """All itemsets with support >= cfg.min_support (and size <= max_len);
    with a target T, only the frequent Z containing T, each Z minus T, and T.
    Over ``MAX_ITEMSETS`` of them is a ``CapacityError``."""
    n = ts.n_transactions
    if n == 0:
        raise UndefinedSupportError("cannot mine an empty transaction set")
    if 4 * n < 3 * ts.rows.bit_length():
        # over a quarter of the rows were dropped: renumber them once rather
        # than pay the parse's width in every AND below
        ts = ts.compact()
    need = min_count(cfg.min_support)(n)
    max_len = cfg.max_len or ts.n_items
    target = cfg.target_consequent or ()
    items = ts.item_ids()

    counts: dict[Itemset, int] = {}
    if not set(target) <= set(items):
        return FrequentItemsets(counts, n)  # a target item is not in ts: no rule has T
    # every cover below is conditional on T: the cover of X is cover(X∪T)
    base = ts.rows
    for i in target:
        base &= ts.cover_bits(i)
    if target and len(target) <= max_len and base.bit_count() >= need:
        counts[target] = base.bit_count()
    depth = max_len - len(target)
    free = [i for i in items if i not in target]
    if need == 0:
        # every itemset passes: X up to depth items, with a target as X∪T and X, and T
        size = sum(math.comb(len(free), k) for k in range(1, depth + 1))
        if target:
            size = 2 * size + (depth >= 0)
        if size > MAX_ITEMSETS:
            raise _too_many(size)

    def grow(prefix: Itemset, cover: int, own: int, candidates: list[tuple[int, int, int]]) -> None:
        # the class of prefix: each frequent X = prefix + (i,) as (i, cover, X's own
        # cover), in id order; without a target the two are one
        klass = []
        for i, cover_i, own_i in candidates:
            bits = cover & cover_i
            c = bits.bit_count()
            if c >= need:
                x = prefix + (i,)
                own_x = own & own_i if target else bits
                if target:
                    counts[tuple(sorted(x + target))] = c
                    c = own_x.bit_count()
                counts[x] = c
                klass.append((i, bits, own_x))
        if len(counts) > MAX_ITEMSETS:
            raise _too_many(f"at least {len(counts)}")
        if len(prefix) + 2 <= depth:
            for a, (i, bits, own_i) in enumerate(klass[:-1]):
                grow(prefix + (i,), bits, own_i, klass[a + 1 :])

    if depth >= 1:
        grow((), base, ts.rows, [(i, ts.cover_bits(i), ts.cover_bits(i)) for i in free])
    return FrequentItemsets(counts, n)
