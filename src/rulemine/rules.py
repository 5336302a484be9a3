"""Association rules: metric computation, enumeration, ranking.

Metrics follow the usual definitions: confidence = support / antecedent
support, lift = support / (antecedent support * consequent support),
leverage = support - antecedent support * consequent support. When called
with Fraction supports all four come out exact; floats are equally
accepted for reconstructing metrics from published (rounded) tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations

from .apriori import FrequentItemsets, MiningConfig, exact
from .core import Itemset
from .errors import InconsistentSupportError, InternalError, UndefinedMetricError

Number = float | Fraction


@dataclass(frozen=True)
class MetricSet:
    antecedent_support: Number
    consequent_support: Number
    support: Number
    confidence: Number
    lift: Number
    leverage: Number


@dataclass(frozen=True)
class Rule:
    antecedent: Itemset
    consequent: Itemset
    metrics: MetricSet


@dataclass
class RuleSet:
    rules: list[Rule] = field(default_factory=list)
    n_transactions: int | None = None

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def metrics(supp_xy: Number, supp_x: Number, supp_y: Number) -> MetricSet:
    """MetricSet from the joint and marginal supports of a rule X => Y."""
    if supp_x == 0 or supp_y == 0:
        raise UndefinedMetricError("metrics undefined for zero antecedent/consequent support")
    if supp_xy > min(supp_x, supp_y):
        raise InconsistentSupportError(
            f"joint support {supp_xy} exceeds a marginal ({supp_x}, {supp_y})"
        )
    return MetricSet(
        antecedent_support=supp_x,
        consequent_support=supp_y,
        support=supp_xy,
        confidence=supp_xy / supp_x,
        lift=supp_xy / (supp_x * supp_y),
        leverage=supp_xy - supp_x * supp_y,
    )


def generate_rules(fi: FrequentItemsets, cfg: MiningConfig) -> RuleSet:
    """Every partition X => Y of every frequent itemset Z that passes the
    thresholds, ranked as by sort_rules.

    Y ranges over the non-empty proper subsets of Z, or is only
    target_consequent when one is set, and X = Z minus Y. The filters,
    confidence >= min_confidence and lift strictly > min_lift, are
    compared exactly on integer counts; metrics are built straight from
    those counts, and only for the rules kept.
    """
    n = fi.n_transactions
    conf, lift = exact(cfg.min_confidence), exact(cfg.min_lift)
    target = cfg.target_consequent
    kept = []
    for z, c_xy in fi.counts.items():
        if target is None:
            consequents = [y for r in range(1, len(z)) for y in combinations(z, r)]
        else:
            y = tuple(i for i in z if i in target)
            consequents = [y] if y == tuple(target) and 0 < len(y) < len(z) else []
        for y in consequents:
            x = tuple(i for i in z if i not in y)
            try:
                c_x, c_y = fi.counts[x], fi.counts[y]
            except KeyError as exc:
                raise InternalError(
                    f"downward closure violated: missing support for {exc.args[0]}"
                ) from None
            if c_x == 0 or c_y == 0:
                raise UndefinedMetricError(f"metrics undefined for zero count: {x} => {y}")
            if c_xy > min(c_x, c_y):
                raise InconsistentSupportError(
                    f"joint count {c_xy} exceeds a marginal ({c_x}, {c_y})"
                )
            if (c_xy * conf.denominator >= conf.numerator * c_x
                    and c_xy * n * lift.denominator > lift.numerator * c_x * c_y):
                # support descending, then confidence descending: for equal
                # joint counts the smaller antecedent count has more confidence
                kept.append((-c_xy, c_x, x, y, c_y))
    kept.sort()
    supp = cache(lambda c: Fraction(c, n))  # rules share one Fraction per count: less memory
    rules = []
    for neg_c_xy, c_x, x, y, c_y in kept:
        c_xy = -neg_c_xy
        rules.append(Rule(x, y, MetricSet(
            antecedent_support=supp(c_x),
            consequent_support=supp(c_y),
            support=supp(c_xy),
            confidence=Fraction(c_xy, c_x),
            lift=Fraction(c_xy * n, c_x * c_y),
            leverage=Fraction(c_xy * n - c_x * c_y, n * n),
        )))
    return RuleSet(rules, n)


def dedup_rules(rs: RuleSet) -> RuleSet:
    """Drop later exact (antecedent, consequent) duplicates.

    X => Y and Y => X are distinct rules and both survive.
    """
    seen = set()
    kept = []
    for r in rs.rules:
        key = (r.antecedent, r.consequent)
        if key not in seen:
            seen.add(key)
            kept.append(r)
    return RuleSet(kept, rs.n_transactions)


def sort_rules(rs: RuleSet) -> RuleSet:
    """Descending support, then descending confidence, then antecedent and
    consequent lexicographically: a total deterministic order."""
    ordered = sorted(
        rs.rules,
        key=lambda r: (-r.metrics.support, -r.metrics.confidence, r.antecedent, r.consequent),
    )
    return RuleSet(ordered, rs.n_transactions)
