"""Association rules: enumeration and ranking on integer counts; metrics as a view.

A Rule holds its antecedent X, its consequent Y and the counts of X∪Y, X
and Y; its RuleSet holds the row count n once. Generation and reports work
on these integers alone. ``RuleSet.metrics`` gives one rule's exact
Fraction metrics on request.

``metric_values`` states the six metric formulas once, over counts among
n rows for reports and over supports (n = 1) for ``metrics``, which checks
them first. Fraction supports give exact metrics; floats are accepted for
reconstructing metrics from published (rounded) tables.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .apriori import FrequentItemsets, MiningConfig, min_count
from .core import Itemset, Record
from .errors import CapacityError, InconsistentSupportError, InternalError, UndefinedMetricError

Number = float | Fraction

# the most partitions one untargeted generation enumerates; each kept rule
# takes about 350 bytes, so 2^20 of them about 370 MB
MAX_PARTITIONS = 1 << 20


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


def metric_values(c_xy: Number, c_x: Number, c_y: Number, n: Number) -> tuple:
    """The six metrics of X => Y in MetricSet order, unchecked, from the
    counts of X∪Y, X and Y among n rows."""
    return (c_x / n, c_y / n, c_xy / n, c_xy / c_x, c_xy * n / (c_x * c_y),
            (c_xy * n - c_x * c_y) / (n * n))


def metrics(supp_xy: Number, supp_x: Number, supp_y: Number) -> MetricSet:
    """MetricSet from the joint and marginal supports of a rule X => Y."""
    if supp_x == 0 or supp_y == 0:
        raise UndefinedMetricError("metrics undefined for zero antecedent/consequent support")
    if supp_xy > min(supp_x, supp_y):
        raise InconsistentSupportError(
            f"joint support {supp_xy} exceeds a marginal ({supp_x}, {supp_y})"
        )
    return MetricSet(*metric_values(supp_xy, supp_x, supp_y, 1))


def _partitions(z: Itemset, target: Itemset | None):
    """Each (X, Y) a rule is built from in z: every non-empty proper subset
    Y with X = z minus Y, or for a target T only (z minus T, T) when z ⊋ T."""
    if target is None:
        # in lexicographic order, the complement of the k-th r-subset of z is
        # the k-th (len(z) - r)-subset from the end
        for r in range(1, len(z)):
            yield from zip(reversed(list(combinations(z, len(z) - r))), combinations(z, r))
    else:
        x = tuple(i for i in z if i not in target)
        if x and len(x) + len(target) == len(z):
            yield x, target


def _least_undefined(counts: dict[Itemset, int], target: Itemset | None):
    """The least (X, Y) that ``generate_rules`` would build with X or Y of
    count 0, or None.

    Only an itemset W of count 0 can be that X or Y. With a target, W is
    X∪Y. Without one, ``counts`` is downward closed, so the least partner
    of W on either side is (j,) for the least j with W∪{j} counted.
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
            found += [(x, y) for x, y in _partitions(w, target)
                      if 0 in (counts.get(x), counts.get(y))]
    return min(found, default=None)


def generate_rules(fi: FrequentItemsets, cfg: MiningConfig) -> RuleSet:
    """Every partition X => Y of every frequent itemset Z that passes the
    thresholds (``_partitions``), ranked by descending support, then
    descending confidence, then X and Y.

    The filters, confidence >= min_confidence and lift strictly >
    min_lift, are decided on integer counts by ``min_count``, and each rule
    keeps only its counts. When some partition's X or Y has count 0, no
    metric is defined and the least such (X, Y) in canonical order is named
    in the error, and is its ``pair``, whatever order ``fi.counts`` has.
    Without a target, over ``MAX_PARTITIONS`` partitions is a
    ``CapacityError``; with one there are at most ``len(fi.counts)``.
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
    if target is None and (size := sum((1 << len(z)) - 2 for z in fi.counts)) > MAX_PARTITIONS:
        raise CapacityError(
            f"rule generation refuses {size} partitions (limit {MAX_PARTITIONS}):"
            " raise --min-support, lower --max-len or give --target-consequent")
    rules = []
    for z, c_xy in fi.counts.items():
        for x, y in _partitions(z, target):
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
                rules.append(Rule(x, y, c_xy, c_x, c_y))
    # for equal joint counts the smaller antecedent count has more confidence
    rules.sort(key=lambda r: (-r.count, r.antecedent_count, r.antecedent, r.consequent))
    return RuleSet(rules, n)
