"""Brute-force reference miner for cross-checking the Apriori path.

Everything here is deliberately naive: full enumeration of the itemset
lattice and full transaction scans per itemset. The threshold predicates
and the ranking are re-stated here on purpose (on exact Fraction metrics
against the decimal threshold, not imported from the apriori or rules
modules) so a threshold or ordering bug in either path shows up as a
disagreement. The rules it returns carry the counts of its own scans.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from .apriori import FrequentItemsets, MiningConfig
from .core import TransactionSet
from .errors import CapacityError
from .rules import Rule, RuleSet, metrics

MAX_ORACLE_ITEMS = 24


def _decimal(threshold: float | Fraction) -> Decimal | Fraction:
    """The threshold as the decimal written: a float through its shortest
    repr; a Fraction (as the CLI passes) is exact already."""
    return threshold if isinstance(threshold, Fraction) else Decimal(str(threshold))


def brute_frequent(
    ts: TransactionSet, min_support: float | Fraction, max_len: int | None = None
) -> FrequentItemsets:
    """Every frequent itemset of at most ``max_len`` items by exhaustive
    lattice enumeration."""
    items = ts.item_ids()
    if len(items) > MAX_ORACLE_ITEMS:
        raise CapacityError(
            f"oracle refuses {len(items)} items (limit {MAX_ORACLE_ITEMS})"
        )
    rows = ts.transactions()
    n = len(rows)
    cut = _decimal(min_support)
    counts = {}
    for k in range(1, (max_len or len(items)) + 1):
        for combo in combinations(items, k):
            member = set(combo)
            count = sum(1 for row in rows if member <= row)
            if Fraction(count, n) >= cut:
                counts[combo] = count
    return FrequentItemsets(counts, n)


def brute_rules(ts: TransactionSet, cfg: MiningConfig) -> RuleSet:
    """All rules over the brute-forced frequent itemsets, filtered on exact
    metrics and ranked by descending support, then descending confidence,
    then antecedent and consequent lexicographically."""
    fi = brute_frequent(ts, cfg.min_support, cfg.max_len)
    rows = ts.transactions()
    n = len(rows)
    min_confidence = _decimal(cfg.min_confidence)
    min_lift = _decimal(cfg.min_lift)
    ranked = []
    for z in fi.counts:
        for r in range(1, len(z)):
            for ant in combinations(z, r):
                cons = tuple(i for i in z if i not in ant)
                if cfg.target_consequent is not None and cons != tuple(cfg.target_consequent):
                    continue
                # counts recomputed by direct scan, independent of fi
                ant_set, cons_set, z_set = set(ant), set(cons), set(z)
                c_z = sum(1 for row in rows if z_set <= row)
                c_a = sum(1 for row in rows if ant_set <= row)
                c_c = sum(1 for row in rows if cons_set <= row)
                m = metrics(Fraction(c_z, n), Fraction(c_a, n), Fraction(c_c, n))
                if m.confidence >= min_confidence and m.lift > min_lift:
                    key = (-m.support, -m.confidence, ant, cons)
                    ranked.append((key, Rule(ant, cons, c_z, c_a, c_c)))
    ranked.sort(key=lambda kr: kr[0])
    return RuleSet([rule for _, rule in ranked], n)
