"""Brute-force reference miner for cross-checking the Apriori path.

Everything here is deliberately naive: full enumeration of the itemset
lattice and full transaction scans per itemset. The threshold predicates
are re-stated here on purpose (on Fraction metrics against the decimal
threshold, not imported from the apriori or rules modules) so a threshold
bug in either path shows up as a disagreement.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from .apriori import FrequentItemsets, MiningConfig
from .core import TransactionSet
from .errors import CapacityError
from .rules import Rule, RuleSet, metrics, sort_rules

MAX_ORACLE_ITEMS = 24


def brute_frequent(ts: TransactionSet, min_support: float) -> FrequentItemsets:
    """Every frequent itemset by exhaustive lattice enumeration."""
    items = ts.item_ids()
    if len(items) > MAX_ORACLE_ITEMS:
        raise CapacityError(
            f"oracle refuses {len(items)} items (limit {MAX_ORACLE_ITEMS})"
        )
    rows = ts.transactions()
    n = len(rows)
    cut = Decimal(str(min_support))
    counts = {}
    for k in range(1, len(items) + 1):
        for combo in combinations(items, k):
            member = set(combo)
            count = sum(1 for row in rows if member <= row)
            if Fraction(count, n) >= cut:
                counts[combo] = count
    return FrequentItemsets(counts, n)


def brute_rules(ts: TransactionSet, cfg: MiningConfig) -> RuleSet:
    """All rules over the brute-forced frequent itemsets, filtered and
    ranked the same way as the main path."""
    fi = brute_frequent(ts, cfg.min_support)
    rows = ts.transactions()
    n = len(rows)
    min_confidence = Decimal(str(cfg.min_confidence))
    min_lift = Decimal(str(cfg.min_lift))
    rules = []
    for z in fi.counts:
        for r in range(1, len(z)):
            for ant in combinations(z, r):
                cons = tuple(i for i in z if i not in ant)
                if cfg.target_consequent is not None and cons != tuple(cfg.target_consequent):
                    continue
                # supports recomputed by direct scan, independent of fi
                ant_set, cons_set, z_set = set(ant), set(cons), set(z)
                supp_z = Fraction(sum(1 for row in rows if z_set <= row), n)
                supp_a = Fraction(sum(1 for row in rows if ant_set <= row), n)
                supp_c = Fraction(sum(1 for row in rows if cons_set <= row), n)
                m = metrics(supp_z, supp_a, supp_c)
                if m.confidence >= min_confidence and m.lift > min_lift:
                    rules.append(Rule(ant, cons, m))
    return sort_rules(RuleSet(rules, n))
