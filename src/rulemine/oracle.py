"""Brute-force reference miner for cross-checking the Apriori path.

``brute_frequent`` adds each distinct transaction's weight to each of its
subsets, with no candidates, covers or prefix classes; ``brute_rules`` reads
that lattice's counts. Both re-state the threshold predicates and the ranking
on purpose (on exact Fraction metrics against the decimal threshold, not
imported from the apriori or rules modules), so a threshold or ordering bug
in either path shows up as a disagreement.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

from .apriori import FrequentItemsets, MiningConfig
from .core import TransactionSet
from .errors import CapacityError, UndefinedSupportError
from .rules import Rule, RuleSet, metrics

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
    """All rules over ``brute_frequent``'s lattice, filtered on exact
    metrics and ranked by descending support, then descending confidence,
    then antecedent and consequent lexicographically. The lattice lists
    each part of an itemset too, as a subset has at least its support."""
    n = fi.n_transactions
    min_confidence = _decimal(cfg.min_confidence)
    min_lift = _decimal(cfg.min_lift)
    ranked = []
    for z in fi.counts:
        for r in range(1, len(z)):
            for ant in combinations(z, r):
                cons = tuple(i for i in z if i not in ant)
                if cfg.target_consequent is not None and cons != tuple(cfg.target_consequent):
                    continue
                c_z, c_a, c_c = fi.counts[z], fi.counts[ant], fi.counts[cons]
                m = metrics(Fraction(c_z, n), Fraction(c_a, n), Fraction(c_c, n))
                if m.confidence >= min_confidence and m.lift > min_lift:
                    key = (-m.support, -m.confidence, ant, cons)
                    ranked.append((key, Rule(ant, cons, c_z, c_a, c_c)))
    ranked.sort(key=lambda kr: kr[0])
    return RuleSet([rule for _, rule in ranked], n)
