import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulemine import rules
from rulemine.apriori import FrequentItemsets, MiningConfig, mine_frequent
from rulemine.core import TransactionSet
from rulemine.errors import CapacityError, UndefinedMetricError, UndefinedSupportError
from rulemine.oracle import brute_frequent, brute_rules
from rulemine.rules import generate_rules

from conftest import random_transaction_set, transaction_sets

TOY = TransactionSet.from_transactions([{0, 1}, {0, 2}, {0, 1}, {1}])


def _ts(rows, n_items):
    return TransactionSet.from_transactions(rows, item_ids=range(n_items))


def _combination_scan(ts, min_support, max_len=None):
    """The reference lattice: every combination of the item universe, up to
    ``max_len`` items, tested against every distinct transaction."""
    items = ts.item_ids()
    n = ts.n_transactions
    rows = Counter(ts.transactions())
    cut = Fraction(str(min_support))  # the decimal written, exactly
    counts = {}
    for k in range(1, (max_len or len(items)) + 1):
        for combo in combinations(items, k):
            count = sum(w for row, w in rows.items() if set(combo) <= row)
            if Fraction(count, n) >= cut:
                counts[combo] = count
    return FrequentItemsets(counts, n)


def _oracle_rules(ts, cfg):
    """The oracle's rules over its own lattice, never the miner's."""
    return brute_rules(brute_frequent(ts, cfg.min_support, cfg.max_len), cfg)


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
        ts = TransactionSet.from_transactions([set(range(25))])  # 2^25 - 1 subsets
        with pytest.raises(CapacityError, match=r"^oracle refuses 33554431 subsets \(limit 16777216\)$"):
            brute_frequent(ts, 0.5)

    @pytest.mark.parametrize("min_support,max_len,work", [
        (0.5, 2, 25 + 300 + 3),  # the 25-item row up to pairs, and the row {0, 1}
        (0.0, 2, 25 + 300 + 3 + 26 + 325),  # the 26-item universe is one more row
    ])
    def test_refuses_before_counting(self, monkeypatch, min_support, max_len, work):
        from rulemine import oracle

        monkeypatch.setattr(oracle, "MAX_ORACLE_SUBSETS", work - 1)
        monkeypatch.setattr(oracle, "combinations", lambda *a: pytest.fail("counted"))
        ts = TransactionSet.from_transactions([set(range(25)), {0, 1}], item_ids=range(26))
        with pytest.raises(CapacityError) as exc:
            brute_frequent(ts, min_support, max_len)
        assert str(exc.value) == f"oracle refuses {work} subsets (limit {work - 1})"

    @pytest.mark.parametrize("ts", [TransactionSet(0, {0: 0, 1: 0}), TOY.restrict(0)],
                             ids=["no_rows", "every_row_dropped"])
    def test_empty_set_has_no_support(self, ts):
        with pytest.raises(UndefinedSupportError):
            brute_frequent(ts, 0.5)
        with pytest.raises(UndefinedSupportError):
            mine_frequent(ts, MiningConfig(min_support=0.5))

    @given(st.randoms(use_true_random=False), st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
           st.sampled_from([None, 1, 2, 3]))
    def test_counts_match_a_row_scan(self, rng, min_support, max_len):
        ts = random_transaction_set(rng, max_items=7, max_transactions=24)
        rows = ts.transactions()
        scan = {
            z: sum(1 for row in rows if set(z) <= row)
            for k in range(1, (max_len or ts.n_items) + 1)
            for z in combinations(ts.item_ids(), k)
        }
        fi = brute_frequent(ts, min_support, max_len)
        assert fi.n_transactions == len(rows)
        cut = Fraction(str(min_support)) * len(rows)  # the decimal written, exactly
        assert fi.counts == {z: c for z, c in scan.items() if c >= cut}

    @settings(max_examples=150, deadline=None)
    @given(transaction_sets(max_items=6, max_transactions=12),
           st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.sampled_from([None, 1, 2, 3]))
    @example(_ts([{0, 1}, {0, 1}, {1}], 3), 0.5, None)  # repeated rows; item 2 in none
    @example(_ts([{0, 2}], 3), 1.0, None)  # one row; item 1 in none
    @example(_ts([{0, 1, 2, 3}] * 3, 4), 1.0, 2)  # every item in every row
    @example(_ts([{0, 1, 2, 3}] * 3, 4), 0.0, 3)
    @example(_ts([set(), {1}], 3), 0.0, 1)
    @example(_ts([{1, 8}], 9), 1.0, 2)  # a frozenset that iterates 8 before 1
    def test_same_lattice_as_the_combination_scan(self, ts, min_support, max_len):
        expected = _combination_scan(ts, min_support, max_len)
        assert brute_frequent(ts, min_support, max_len) == expected
        if max_len is None:
            assert brute_frequent(ts, min_support, 10**9) == expected


class TestBruteRules:
    def test_matches_main_path_on_toy(self):
        cfg = MiningConfig(min_support=0.25, min_confidence=0.0, min_lift=0.0)
        assert _oracle_rules(TOY, cfg).rules == generate_rules(mine_frequent(TOY, cfg), cfg).rules

    def test_huge_min_lift_empties(self):
        cfg = MiningConfig(min_support=0.25, min_lift=1e9)
        assert _oracle_rules(TOY, cfg).rules == []

    def test_singleton_only_frequents(self):
        ts = TransactionSet.from_transactions([{0}, {1}, {0}, {1}])
        cfg = MiningConfig(min_support=0.5)
        assert _oracle_rules(ts, cfg).rules == []


def _rows(groups, n_items=2):
    """TransactionSet with each (itemset, multiplicity) group repeated."""
    rows = [set(items) for items, k in groups for _ in range(k)]
    return TransactionSet.from_transactions(rows, item_ids=range(n_items))


def _both_paths(ts, cfg):
    """Rule keys from the miner, after checking the oracle agrees."""
    fast = generate_rules(mine_frequent(ts, cfg), cfg)
    assert fast.rules == _oracle_rules(ts, cfg).rules
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


def _ranked_keys(ts, cfg=MiningConfig(min_support=0.1, min_lift=0.0)):
    return [(r.antecedent, r.consequent) for r in _oracle_rules(ts, cfg)]


class TestRanking:
    # the oracle ranks on its own: descending support, then descending
    # confidence, then antecedent and consequent lexicographically

    def test_support_descending(self):
        ts = _rows([((0, 1), 2), ((2, 3), 4)], n_items=4)
        assert _ranked_keys(ts) == [((2,), (3,)), ((3,), (2,)), ((0,), (1,)), ((1,), (0,))]

    def test_confidence_breaks_support_ties(self):
        ts = _rows([((0, 1), 3), ((0,), 3)])  # confidence 1/2 for 0 => 1, 1 for 1 => 0
        assert _ranked_keys(ts) == [((1,), (0,)), ((0,), (1,))]

    def test_lexicographic_final_tie_break(self):
        # all four rules have support 2/6; 0 => 2 and 1 => 2 tie on confidence 2/3
        ts = _rows([((0, 2), 2), ((1, 2), 2), ((0,), 1), ((1,), 1)], n_items=3)
        assert _ranked_keys(ts) == [((0,), (2,)), ((1,), (2,)), ((2,), (0,)), ((2,), (1,))]

    def test_total_order_independent_of_row_order(self):
        rng = random.Random(31)
        cfg = MiningConfig(min_support=0.1, min_lift=0.0)
        for _ in range(20):
            ts = random_transaction_set(rng, max_items=6, max_transactions=20)
            rs = _oracle_rules(ts, cfg)
            flipped = TransactionSet.from_transactions(
                ts.transactions()[::-1], item_ids=ts.item_ids())
            assert _oracle_rules(flipped, cfg).rules == rs.rules
            keys = [(-m.support, -m.confidence, r.antecedent, r.consequent)
                    for r in rs for m in [rs.metrics(r)]]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("target", [None, (0,), (1,)])
def test_zero_support_with_absent_item_is_undefined(target):
    ts = _rows([((0,), 2)])  # item 1 never occurs, yet is frequent at support 0
    cfg = MiningConfig(min_support=0.0, target_consequent=target)
    with pytest.raises(UndefinedMetricError):
        generate_rules(mine_frequent(ts, cfg), cfg)
    with pytest.raises(UndefinedMetricError):
        _oracle_rules(ts, cfg)


@given(transaction_sets(max_items=6, max_transactions=12), st.data(),
       st.sampled_from([0.1, 0.25, 0.5]), st.sampled_from([0, 0.5]), st.sampled_from([0, 1]))
def test_targeted_rules_are_the_untargeted_rules_with_that_consequent(
    ts, data, min_support, min_confidence, min_lift
):
    target = tuple(sorted(data.draw(st.sets(st.sampled_from(ts.item_ids()), min_size=1))))
    fi = brute_frequent(ts, min_support)
    cfg = MiningConfig(min_support=min_support, min_confidence=min_confidence, min_lift=min_lift)
    every = brute_rules(fi, cfg).rules
    targeted = MiningConfig(**(vars(cfg) | {"target_consequent": target}))
    assert brute_rules(fi, targeted).rules == [r for r in every if r.consequent == target]


def _random_cases():
    """40 seeded random transaction sets, each with a support threshold."""
    rng = random.Random(2024)
    for _ in range(40):
        ts = random_transaction_set(rng, max_items=7, max_transactions=24)
        yield ts, rng.choice([0.05, 0.1, 0.2, 0.3, 0.5])


def test_randomized_agreement():
    for ts, min_support in _random_cases():
        cfg = MiningConfig(min_support=min_support)
        assert mine_frequent(ts, cfg).counts == brute_frequent(ts, min_support).counts
        assert generate_rules(mine_frequent(ts, cfg), cfg).rules == _oracle_rules(ts, cfg).rules


def test_oracle_states_its_own_metrics(monkeypatch):
    # the report's metric formulas broken, the oracle still ranks and filters
    # every rule as the miner does: it restates them rather than borrowing them
    def broken(*args):
        raise AssertionError("the oracle called rules.metric_values")

    monkeypatch.setattr(rules, "metric_values", broken)
    for ts, min_support in _random_cases():
        for target in (None, (0,), (0, 1)):
            cfg = MiningConfig(min_support=min_support, target_consequent=target)
            assert generate_rules(mine_frequent(ts, cfg), cfg).rules == _oracle_rules(ts, cfg).rules
