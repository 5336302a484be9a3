from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemine.apriori import FrequentItemsets, MiningConfig, mine_frequent
from rulemine.core import TransactionSet
from rulemine.errors import (
    InconsistentSupportError,
    InternalError,
    UndefinedMetricError,
)
from rulemine.rules import (
    MetricSet,
    Rule,
    RuleSet,
    dedup_rules,
    generate_rules,
    metrics,
    sort_rules,
)

from conftest import transaction_sets


def _rule(ant, cons, support=0.5, confidence=0.5):
    m = MetricSet(0.9, 0.9, support, confidence, 1.0, 0.0)
    return Rule(ant, cons, m)


class TestMetrics:
    def test_published_row_fever_cough(self):
        m = metrics(0.4024, 0.5864, 0.6386)
        assert m.confidence == pytest.approx(0.6862, abs=2e-4)
        assert m.lift == pytest.approx(1.0746, abs=2e-4)
        assert m.leverage == pytest.approx(0.0279, abs=2e-4)

    def test_published_row_ventilator(self):
        # printed values come from unrounded supports, hence the wider tolerance
        m = metrics(0.0240, 0.0508, 0.1843)
        assert m.confidence == pytest.approx(0.4726, abs=2e-3)
        assert m.lift == pytest.approx(2.5636, abs=2e-3)
        assert m.leverage == pytest.approx(0.0146, abs=2e-3)

    def test_exact_independence(self):
        m = metrics(Fraction(3, 8) * Fraction(1, 2), Fraction(3, 8), Fraction(1, 2))
        assert m.lift == 1 and m.leverage == 0

    def test_zero_marginal_rejected(self):
        with pytest.raises(UndefinedMetricError):
            metrics(0.0, 0.0, 0.5)

    def test_inconsistent_support_rejected(self):
        with pytest.raises(InconsistentSupportError):
            metrics(0.6, 0.5, 0.9)

    def test_supports_passed_through(self):
        m = metrics(0.2, 0.4, 0.5)
        assert (m.antecedent_support, m.consequent_support, m.support) == (0.4, 0.5, 0.2)


class TestGenerateRules:
    FI = FrequentItemsets({(0,): 3, (1,): 3, (0, 1): 2}, 4)

    def test_toy_both_directions(self):
        rs = generate_rules(self.FI, MiningConfig(min_confidence=0.0, min_lift=0.0))
        assert len(rs) == 2
        by_key = {(r.antecedent, r.consequent): r for r in rs}
        for key in [((0,), (1,)), ((1,), (0,))]:
            m = by_key[key].metrics
            assert m.confidence == Fraction(2, 3)
            assert m.lift == Fraction(8, 9)

    def test_min_lift_one_filters_all(self):
        rs = generate_rules(self.FI, MiningConfig(min_lift=1.0))
        assert len(rs) == 0

    def test_singletons_only_yields_nothing(self):
        fi = FrequentItemsets({(0,): 2, (1,): 1}, 4)
        assert len(generate_rules(fi, MiningConfig())) == 0

    def test_missing_subset_is_contract_violation(self):
        broken = FrequentItemsets({(0, 1): 2}, 4)
        with pytest.raises(InternalError):
            generate_rules(broken, MiningConfig())

    def test_multi_item_consequents_enumerated(self):
        ts = TransactionSet.from_transactions([{0, 1, 2}] * 3 + [{0}])
        fi = mine_frequent(ts, MiningConfig(min_support=0.5))
        rs = generate_rules(fi, MiningConfig(min_support=0.5, min_confidence=0.0))
        assert ((0,), (1, 2)) in {(r.antecedent, r.consequent) for r in rs}

    def test_all_rules_disjoint_and_nonempty(self):
        ts = TransactionSet.from_transactions([{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}])
        fi = mine_frequent(ts, MiningConfig(min_support=0.25))
        for r in generate_rules(fi, MiningConfig(min_support=0.25)):
            assert r.antecedent and r.consequent
            assert not set(r.antecedent) & set(r.consequent)

    def test_target_consequent(self):
        rs = generate_rules(
            self.FI,
            MiningConfig(min_confidence=0.0, min_lift=0.0, target_consequent=(1,)),
        )
        assert [(r.antecedent, r.consequent) for r in rs] == [((0,), (1,))]


@settings(max_examples=60, deadline=None)
@given(
    transaction_sets(),
    st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]),
    st.sampled_from([0.0, 0.5, 0.75]),
    st.sampled_from([0.0, 1.0, 1.2]),
)
def test_target_consequent_equals_filtered_untargeted(ts, min_support, min_confidence, min_lift):
    cfg = MiningConfig(min_support=min_support, min_confidence=min_confidence, min_lift=min_lift)
    fi = mine_frequent(ts, cfg)
    untargeted = generate_rules(fi, cfg)
    for target in fi.counts:
        targeted = generate_rules(fi, replace(cfg, target_consequent=target))
        assert targeted.rules == [r for r in untargeted if r.consequent == target]


class TestDedupRules:
    def test_exact_duplicate_dropped(self):
        r = _rule((0,), (1,))
        assert dedup_rules(RuleSet([r, r])).rules == [r]

    def test_reversed_rule_kept(self):
        a, b = _rule((0,), (1,)), _rule((1,), (0,))
        assert dedup_rules(RuleSet([a, b])).rules == [a, b]

    def test_empty(self):
        assert dedup_rules(RuleSet([])).rules == []

    def test_idempotent(self):
        rules = [_rule((0,), (1,)), _rule((0,), (1,)), _rule((2,), (3,))]
        once = dedup_rules(RuleSet(rules))
        assert dedup_rules(once).rules == once.rules


class TestSortRules:
    def test_support_descending(self):
        low, high = _rule((0,), (1,), support=0.2), _rule((2,), (3,), support=0.4)
        assert sort_rules(RuleSet([low, high])).rules == [high, low]

    def test_confidence_breaks_support_ties(self):
        a = _rule((0,), (1,), support=0.3, confidence=0.5)
        b = _rule((2,), (3,), support=0.3, confidence=0.9)
        assert sort_rules(RuleSet([a, b])).rules == [b, a]

    def test_lexicographic_final_tie_break(self):
        a, b = _rule((0,), (9,)), _rule((1,), (9,))
        assert sort_rules(RuleSet([b, a])).rules == [a, b]

    def test_idempotent_and_permutation(self):
        rules = [_rule((i,), (9,), support=0.1 * i) for i in range(5)]
        once = sort_rules(RuleSet(list(reversed(rules))))
        assert sort_rules(once).rules == once.rules
        assert sorted(map(id, once.rules)) == sorted(map(id, rules))
