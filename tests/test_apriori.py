import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemine.apriori import (
    MiningConfig,
    count_support,
    generate_candidates,
    mine_frequent,
    required_count,
)
from rulemine.core import TransactionSet
from rulemine.errors import ConfigError, InternalError, UndefinedSupportError
from rulemine.oracle import brute_frequent

from conftest import random_transaction_set, transaction_sets

# ts = [{A,B},{A,C},{A,B},{B}] with A=0, B=1, C=2
TOY = TransactionSet.from_transactions([{0, 1}, {0, 2}, {0, 1}, {1}])


class TestMineFrequent:
    def test_toy_min_support_half(self):
        fi = mine_frequent(TOY, MiningConfig(min_support=0.5))
        assert fi.counts == {(0,): 3, (1,): 3, (0, 1): 2}

    def test_min_support_one_no_universal_item(self):
        fi = mine_frequent(TOY, MiningConfig(min_support=1.0))
        assert fi.counts == {}

    def test_max_len_one(self):
        fi = mine_frequent(TOY, MiningConfig(min_support=0.25, max_len=1))
        assert all(len(s) == 1 for s in fi.counts)
        assert (0,) in fi.counts and (1,) in fi.counts and (2,) in fi.counts

    def test_empty_database_raises(self):
        empty = TransactionSet.from_transactions([], item_ids=[0])
        with pytest.raises(UndefinedSupportError):
            mine_frequent(empty, MiningConfig())

    def test_downward_closure_of_output(self):
        fi = mine_frequent(TOY, MiningConfig(min_support=0.25))
        for s, c in fi.counts.items():
            for j in range(len(s)):
                sub = s[:j] + s[j + 1 :]
                if sub:
                    assert fi.counts[sub] >= c


class TestGenerateCandidates:
    def test_triangle_joins(self):
        assert generate_candidates({(0, 1), (0, 2), (1, 2)}) == {(0, 1, 2)}

    def test_no_shared_prefix(self):
        assert generate_candidates({(0, 1), (2, 3)}) == set()

    def test_pruned_by_missing_subset(self):
        # join gives (0,1,2) but (1,2) is not frequent
        assert generate_candidates({(0, 1), (0, 2)}) == set()

    def test_singletons_join_to_all_pairs(self):
        assert generate_candidates({(0,), (1,), (2,)}) == {(0, 1), (0, 2), (1, 2)}

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InternalError):
            generate_candidates({(0,), (1, 2)})

    def test_soundness_and_completeness_against_enumeration(self):
        from itertools import combinations

        rng = random.Random(7)
        for _ in range(50):
            k = rng.randint(2, 4)
            universe = list(range(rng.randint(k, 7)))
            prev = {
                tuple(sorted(c))
                for c in combinations(universe, k - 1)
                if rng.random() < 0.6
            }
            if not prev:
                continue
            expected = {
                tuple(sorted(c))
                for c in combinations(universe, k)
                if all(tuple(sorted(s)) in prev for s in combinations(c, k - 1))
            }
            assert generate_candidates(prev) == expected


class TestCountSupport:
    def test_toy_counts(self):
        assert count_support(TOY, [(0, 1), (0, 2)]) == {(0, 1): 2, (0, 2): 1}

    def test_empty_candidate(self):
        assert count_support(TOY, [()]) == {(): 4}

    def test_item_with_empty_cover(self):
        ts = TransactionSet.from_transactions([{0}], item_ids=[0, 1])
        assert count_support(ts, [(0, 1)]) == {(0, 1): 0}


class TestRequiredCount:
    @pytest.mark.parametrize(
        "min_support,n,expected",
        [(0.5, 4, 2), (0.3, 10, 3), (0.15, 20, 3), (0.001, 2875, 3),
         (0.0, 10, 0), (1.0, 7, 7), (0.26, 10, 3), (0.1000000000001, 10, 2)],
    )
    def test_boundary_exactness(self, min_support, n, expected):
        assert required_count(min_support, n) == expected


class TestConfigValidation:
    def test_bad_support(self):
        with pytest.raises(ConfigError):
            MiningConfig(min_support=1.5)

    def test_bad_confidence(self):
        with pytest.raises(ConfigError):
            MiningConfig(min_confidence=-0.1)

    @pytest.mark.parametrize("min_lift", [-1.0, float("inf"), float("nan")])
    def test_bad_lift(self, min_lift):
        with pytest.raises(ConfigError):
            MiningConfig(min_lift=min_lift)

    def test_bad_max_len(self):
        with pytest.raises(ConfigError):
            MiningConfig(max_len=0)


@settings(max_examples=60, deadline=None)
@given(transaction_sets(), st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]))
def test_oracle_equivalence(ts, min_support):
    fast = mine_frequent(ts, MiningConfig(min_support=min_support))
    slow = brute_frequent(ts, min_support)
    assert fast.counts == slow.counts


def test_order_and_relabeling_invariance():
    rng = random.Random(11)
    for _ in range(20):
        ts = random_transaction_set(rng, max_items=6, max_transactions=20)
        fi = mine_frequent(ts, MiningConfig(min_support=0.2))

        rows = ts.transactions()
        rng.shuffle(rows)
        ts_shuffled = TransactionSet.from_transactions(rows, item_ids=ts.item_ids())
        assert mine_frequent(ts_shuffled, MiningConfig(min_support=0.2)).counts == fi.counts

        perm = list(ts.item_ids())
        rng.shuffle(perm)
        mapping = dict(zip(ts.item_ids(), perm))
        relabeled = [{mapping[i] for i in row} for row in ts.transactions()]
        ts_rel = TransactionSet.from_transactions(relabeled, item_ids=ts.item_ids())
        fi_rel = mine_frequent(ts_rel, MiningConfig(min_support=0.2))
        inverse = {v: k for k, v in mapping.items()}
        unpermuted = {
            tuple(sorted(inverse[i] for i in s)): c for s, c in fi_rel.counts.items()
        }
        assert unpermuted == fi.counts
