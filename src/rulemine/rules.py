"""Association rules: enumeration and ranking on integer counts; metrics as a view.

A Rule holds its antecedent X, its consequent Y and the counts of X∪Y, X
and Y; its RuleSet holds the row count n once. Generation and reports work
on these integers alone. ``RuleSet.metrics`` gives one rule's exact
Fraction metrics on request.

Metrics follow the usual definitions: confidence = support / antecedent
support, lift = support / (antecedent support * consequent support),
leverage = support - antecedent support * consequent support. ``metrics``
takes Fraction supports, and all four come out exact; floats are equally
accepted for reconstructing metrics from published (rounded) tables.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .apriori import FrequentItemsets, MiningConfig, min_count
from .core import Itemset, Record
from .errors import InconsistentSupportError, InternalError, UndefinedMetricError

Number = float | Fraction


MetricSet = namedtuple(
    "MetricSet",
    "antecedent_support consequent_support support confidence lift leverage",
)

# X => Y with the counts of X∪Y, X and Y among the RuleSet's rows. The
# field ``count`` shadows ``tuple.count``; a Rule is never searched for a value.
Rule = namedtuple("Rule", "antecedent consequent count antecedent_count consequent_count")


class RuleSet(Record):
    """Ranked rules and the row count n their counts are taken over."""

    def __init__(self, rules: list[Rule], n_transactions: int):
        self.rules = rules
        self.n_transactions = n_transactions

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def metrics(self, rule: Rule) -> MetricSet:
        """The rule's exact metrics, as Fractions of its counts."""
        n = self.n_transactions
        return metrics(
            Fraction(rule.count, n),
            Fraction(rule.antecedent_count, n),
            Fraction(rule.consequent_count, n),
        )


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


def _least_undefined(counts: dict[Itemset, int], target: Itemset | None):
    """The least (X, Y) that ``generate_rules`` would build with X or Y of
    count 0, or None.

    Only an itemset W of count 0 can be that X or Y. With a target, W is
    X∪Y and Y is the target. Without one, ``counts`` is downward closed, so
    the least partner of W on either side is (j,) for the least j with
    W∪{j} counted.
    """
    singles = sorted(s for s in counts if len(s) == 1)
    found = []
    for w in [s for s, c in counts.items() if c == 0]:
        if target is None:
            j = next((j for j in singles if j[0] not in w
                      and tuple(sorted(w + j)) in counts), None)
            if j:
                found += [(w, j), (j, w)]
        else:
            x = tuple(i for i in w if i not in target)
            y = tuple(i for i in w if i in target)
            if y == tuple(target) and x and y and 0 in (counts.get(x), counts.get(y)):
                found.append((x, y))
    return min(found, default=None)


def generate_rules(fi: FrequentItemsets, cfg: MiningConfig) -> RuleSet:
    """Every partition X => Y of every frequent itemset Z that passes the
    thresholds, ranked by descending support, then descending confidence,
    then X and Y.

    Y ranges over the non-empty proper subsets of Z, or is only
    target_consequent when one is set, and X = Z minus Y. The filters,
    confidence >= min_confidence and lift strictly > min_lift, are decided
    on integer counts by ``min_count``, and each rule keeps only its counts.
    When some partition's X or Y has count 0, no metric is defined and the
    least such (X, Y) in canonical order is named in the error, and is its
    ``pair``, whatever order ``fi.counts`` has.
    """
    n = fi.n_transactions
    conf_need = min_count(cfg.min_confidence)
    lift_need = min_count(cfg.min_lift, strict=True)
    target = cfg.target_consequent
    if 0 in fi.counts.values():
        undefined = _least_undefined(fi.counts, target)
        if undefined:
            exc = UndefinedMetricError("metrics undefined for zero count: %s => %s" % undefined)
            exc.pair = undefined
            raise exc
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
            if c_xy > min(c_x, c_y):
                raise InconsistentSupportError(
                    f"joint count {c_xy} exceeds a marginal ({c_x}, {c_y})"
                )
            if c_xy >= conf_need(c_x) and c_xy * n >= lift_need(c_x * c_y):
                # support descending, then confidence descending: for equal
                # joint counts the smaller antecedent count has more confidence
                kept.append((-c_xy, c_x, x, y, c_y))
    kept.sort()
    return RuleSet([Rule(x, y, -neg_c_xy, c_x, c_y) for neg_c_xy, c_x, x, y, c_y in kept], n)
