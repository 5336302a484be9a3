import random

import pytest

from rulemine.apriori import MiningConfig, mine_frequent
from rulemine.core import TransactionSet
from rulemine.errors import CapacityError, UndefinedMetricError
from rulemine.oracle import brute_frequent, brute_rules
from rulemine.rules import generate_rules

from conftest import random_transaction_set

TOY = TransactionSet.from_transactions([{0, 1}, {0, 2}, {0, 1}, {1}])


class TestBruteFrequent:
    def test_toy(self):
        fi = brute_frequent(TOY, 0.5)
        assert set(fi.counts) == {(0,), (1,), (0, 1)}

    def test_zero_support_enumerates_everything(self):
        ts = TransactionSet.from_transactions([{0, 1, 2}])
        fi = brute_frequent(ts, 0.0)
        assert len(fi.counts) == 7

    def test_single_transaction(self):
        ts = TransactionSet.from_transactions([{0}])
        assert brute_frequent(ts, 1.0).counts == {(0,): 1}

    def test_capacity_guard(self):
        ts = TransactionSet.from_transactions([], item_ids=range(25))
        with pytest.raises(CapacityError):
            brute_frequent(ts, 0.5)


class TestBruteRules:
    def test_matches_main_path_on_toy(self):
        cfg = MiningConfig(min_support=0.25, min_confidence=0.0, min_lift=0.0)
        assert brute_rules(TOY, cfg).rules == generate_rules(mine_frequent(TOY, cfg), cfg).rules

    def test_huge_min_lift_empties(self):
        cfg = MiningConfig(min_support=0.25, min_lift=1e9)
        assert brute_rules(TOY, cfg).rules == []

    def test_singleton_only_frequents(self):
        ts = TransactionSet.from_transactions([{0}, {1}, {0}, {1}])
        cfg = MiningConfig(min_support=0.5)
        assert brute_rules(ts, cfg).rules == []


def _rows(groups, n_items=2):
    """TransactionSet with each (itemset, multiplicity) group repeated."""
    rows = [set(items) for items, k in groups for _ in range(k)]
    return TransactionSet.from_transactions(rows, item_ids=range(n_items))


def _both_paths(ts, cfg):
    """Rule keys from the miner, after checking the oracle agrees."""
    fast = generate_rules(mine_frequent(ts, cfg), cfg)
    assert fast.rules == brute_rules(ts, cfg).rules
    return {(r.antecedent, r.consequent) for r in fast}


class TestThresholdBoundaries:
    # each threshold is the exact decimal written, never its binary float

    def test_confidence_exactly_at_threshold_kept(self):
        ts = _rows([((0, 1), 1), ((0,), 9)])
        cfg = MiningConfig(min_support=0.1, min_confidence=0.1)
        assert mine_frequent(ts, cfg).counts == {(0,): 10, (1,): 1, (0, 1): 1}
        assert _both_paths(ts, cfg) == {((0,), (1,)), ((1,), (0,))}

    def test_lift_exactly_at_threshold_dropped(self):
        ts = _rows([((0, 1), 17), ((0,), 3), ((1,), 33), ((), 47)])
        assert mine_frequent(ts, MiningConfig(min_support=0.1)).counts == {
            (0,): 20, (1,): 50, (0, 1): 17}
        assert _both_paths(ts, MiningConfig(min_support=0.1, min_lift=1.7)) == set()
        assert len(_both_paths(ts, MiningConfig(min_support=0.1, min_lift=1.69))) == 2

    def test_support_exactly_at_threshold_kept(self):
        ts = _rows([((0, 1), 3), ((0,), 1), ((), 6)])
        cfg = MiningConfig(min_support=0.3)
        assert mine_frequent(ts, cfg).counts == brute_frequent(ts, 0.3).counts
        assert brute_frequent(ts, 0.3).counts[(0, 1)] == 3
        assert _both_paths(ts, cfg) == {((0,), (1,)), ((1,), (0,))}
        assert _both_paths(ts, MiningConfig(min_support=0.31)) == set()


@pytest.mark.parametrize("target", [None, (0,), (1,)])
def test_zero_support_with_absent_item_is_undefined(target):
    ts = _rows([((0,), 2)])  # item 1 never occurs, yet is frequent at support 0
    cfg = MiningConfig(min_support=0.0, target_consequent=target)
    with pytest.raises(UndefinedMetricError):
        generate_rules(mine_frequent(ts, cfg), cfg)
    with pytest.raises(UndefinedMetricError):
        brute_rules(ts, cfg)


def test_randomized_agreement():
    rng = random.Random(2024)
    for _ in range(40):
        ts = random_transaction_set(rng, max_items=7, max_transactions=24)
        min_support = rng.choice([0.05, 0.1, 0.2, 0.3, 0.5])
        cfg = MiningConfig(min_support=min_support)
        assert mine_frequent(ts, cfg).counts == brute_frequent(ts, min_support).counts
        assert generate_rules(mine_frequent(ts, cfg), cfg).rules == brute_rules(ts, cfg).rules
