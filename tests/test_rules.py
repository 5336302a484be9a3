from fractions import Fraction
from itertools import combinations

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
from rulemine.oracle import brute_rules
from rulemine.rules import generate_rules, metrics

from conftest import transaction_sets


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
            m = rs.metrics(by_key[key])
            assert m.confidence == Fraction(2, 3)
            assert m.lift == Fraction(8, 9)

    def test_min_lift_one_filters_all(self):
        rs = generate_rules(self.FI, MiningConfig(min_lift=1.0))
        assert len(rs) == 0

    def test_singletons_only_yields_nothing(self):
        fi = FrequentItemsets({(0,): 2, (1,): 1}, 4)
        assert len(generate_rules(fi, MiningConfig())) == 0

    def test_joint_count_above_a_marginal_rejected(self):
        broken = FrequentItemsets({(0,): 2, (1,): 3, (0, 1): 3}, 4)
        with pytest.raises(InconsistentSupportError, match="joint count 3 exceeds"):
            generate_rules(broken, MiningConfig())

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
        canonical = MiningConfig(**(vars(cfg) | {"target_consequent": target}))
        targeted = generate_rules(fi, canonical)
        assert targeted.rules == [r for r in untargeted if r.consequent == target]
        # the target reversed or with an item repeated is the same target; the
        # oracle reads the target's family, which holds every count it looks up
        family = mine_frequent(ts, canonical)
        assert brute_rules(family, canonical).rules == targeted.rules
        for given_as in (target[::-1], target + target[:1]):
            tcfg = MiningConfig(**(vars(cfg) | {"target_consequent": given_as}))
            assert tcfg == canonical and mine_frequent(ts, tcfg) == family
            assert generate_rules(fi, tcfg).rules == targeted.rules
            assert brute_rules(family, tcfg).rules == targeted.rules


class TestZeroCount:
    """At support 0 an itemset in no row is frequent. A partition with a
    side of count 0 has no metrics, and the error names the least such
    (X, Y) in canonical order, whatever order the counts come in."""

    # item 3 is the target; (0, 1, 2) is the least antecedent in no row
    TS = TransactionSet.from_transactions([{0, 1}, {2}, {3}])

    def _message(self, counts, cfg):
        with pytest.raises(UndefinedMetricError) as exc:
            generate_rules(FrequentItemsets(counts, 3), cfg)
        return str(exc.value)

    @pytest.mark.parametrize(
        "target,least", [(None, "(0,) => (1, 2)"), ((3,), "(0, 1, 2) => (3,)")]
    )
    def test_the_least_partition_is_named(self, target, least):
        cfg = MiningConfig(min_support=0.0, target_consequent=target)
        counts = mine_frequent(self.TS, cfg).counts
        for order in (counts, dict(reversed(counts.items()))):
            assert self._message(order, cfg) == f"metrics undefined for zero count: {least}"

    def test_targeted_and_full_lattice_name_the_same_partition(self):
        cfg = MiningConfig(min_support=0.0, target_consequent=(3,))
        full = mine_frequent(self.TS, MiningConfig(min_support=0.0)).counts
        assert self._message(mine_frequent(self.TS, cfg).counts, cfg) == self._message(full, cfg)


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    transaction_sets(max_items=5, max_transactions=8),
    st.sampled_from([None, 1, 2, 3]),
    st.sampled_from([None, (0,), (1,), (0, 2)]),
    st.sampled_from([0, 0.5, 1]),
    st.sampled_from([0, 1, 1.5]),
)
def test_zero_count_error_is_the_least_of_every_partition(
    data, ts, max_len, target, min_confidence, min_lift
):
    counts = mine_frequent(ts, MiningConfig(min_support=0.0, max_len=max_len)).counts
    undefined = [
        (x, y)
        for z in counts
        for r in range(1, len(z))
        for y in combinations(z, r)
        for x in [tuple(i for i in z if i not in y)]
        if target in (None, y) and 0 in (counts[x], counts[y])
    ]
    shuffled = dict(data.draw(st.permutations(list(counts.items()))))
    fi = FrequentItemsets(shuffled, ts.n_transactions)
    cfg = MiningConfig(
        min_support=0.0, min_confidence=min_confidence, min_lift=min_lift,
        target_consequent=target,
    )
    if undefined:
        with pytest.raises(UndefinedMetricError) as exc:
            generate_rules(fi, cfg)
        assert str(exc.value) == "metrics undefined for zero count: %s => %s" % min(undefined)
    else:
        generate_rules(fi, cfg)
