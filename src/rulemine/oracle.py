"""Brute-force reference miner for cross-checking the Apriori path.

``brute_frequent`` adds each distinct transaction's weight to each of its
subsets, with no candidates, covers or prefix classes; ``brute_rules`` reads
that lattice's counts. Both restate the thresholds (on exact Fractions of
counts against the decimal written) and the ranking, and take nothing from the
apriori or rules modules' formulas, so a bug in either path shows as a mismatch.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

from .apriori import FrequentItemsets, MiningConfig
from .core import TransactionSet
from .errors import CapacityError, UndefinedMetricError, UndefinedSupportError
from .rules import Rule, RuleSet

MAX_ORACLE_SUBSETS = 1 << 24


def _decimal(threshold: float | Fraction) -> Decimal | Fraction:
    """The threshold as the decimal written: a float through its shortest
    repr; a Fraction (as the CLI passes) is exact already."""
    return threshold if isinstance(threshold, Fraction) else Decimal(str(threshold))


def brute_frequent(
    ts: TransactionSet, min_support: float | Fraction, max_len: int | None = None
) -> FrequentItemsets:
    """Every frequent itemset of at most ``max_len`` items, each distinct row
    adding its weight to its subsets (at a zero threshold, the item universe
    too, at weight 0); refuses over ``MAX_ORACLE_SUBSETS`` subsets up front."""
    n = ts.n_transactions
    if n == 0:
        raise UndefinedSupportError("cannot mine an empty transaction set")
    cut = _decimal(min_support)
    rows = Counter(tuple(sorted(t)) for t in ts.transactions())
    if cut <= 0:
        rows[tuple(ts.item_ids())] += 0  # lists every combination, counted or not
    top = max_len or ts.n_items
    work = sum(comb(len(t), k) for t in rows for k in range(1, min(top, len(t)) + 1))
    if work > MAX_ORACLE_SUBSETS:
        raise CapacityError(f"oracle refuses {work} subsets (limit {MAX_ORACLE_SUBSETS})")
    counts = Counter()
    for t, w in rows.items():
        for k in range(1, min(top, len(t)) + 1):
            for z in combinations(t, k):
                counts[z] += w
    return FrequentItemsets({z: c for z, c in counts.items() if Fraction(c, n) >= cut}, n)


def brute_rules(fi: FrequentItemsets, cfg: MiningConfig) -> RuleSet:
    """Each X => Y of each Z in ``fi`` with confidence c(Z)/c(X) at least, and
    lift c(Z)·n/(c(X)·c(Y)) above, its threshold, ranked by descending count
    (so support), then confidence, then X, then Y. An X or Y of count 0 has no
    metrics. ``fi`` must be ``brute_frequent``'s lattice, which lists X and Y
    and never counts Z above either; another lattice is not checked for that."""
    n = fi.n_transactions
    min_confidence, min_lift = _decimal(cfg.min_confidence), _decimal(cfg.min_lift)
    rules = []
    for z, c_z in fi.counts.items():
        for r in range(1, len(z)):
            for x in combinations(z, r):
                y = tuple(i for i in z if i not in x)
                if cfg.target_consequent not in (None, y):
                    continue
                c_x, c_y = fi.counts[x], fi.counts[y]
                if 0 in (c_x, c_y):
                    raise UndefinedMetricError(f"metrics undefined for zero count: {x} => {y}")
                if Fraction(c_z, c_x) >= min_confidence and Fraction(c_z * n, c_x * c_y) > min_lift:
                    rules.append(Rule(x, y, c_z, c_x, c_y))
    rules.sort(key=lambda r: (-r.count, -Fraction(r.count, r.antecedent_count),
                              r.antecedent, r.consequent))
    return RuleSet(rules, n)
