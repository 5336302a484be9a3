import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulemine.apriori import (
    FrequentItemsets,
    MiningConfig,
    generate_candidates,
    min_count,
    mine_frequent,
)
from rulemine.core import TransactionSet
from rulemine.errors import (
    ConfigError,
    InternalError,
    UndefinedMetricError,
    UndefinedSupportError,
)
from rulemine.oracle import brute_frequent
from rulemine.rules import generate_rules

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


class TestRequiredCount:
    @pytest.mark.parametrize(
        "min_support,n,expected",
        [(0.5, 4, 2), (0.3, 10, 3), (0.15, 20, 3), (0.001, 2875, 3),
         (0.0, 10, 0), (1.0, 7, 7), (0.26, 10, 3), (0.1000000000001, 10, 2)],
    )
    def test_boundary_exactness(self, min_support, n, expected):
        assert min_count(min_support)(n) == expected

    @given(
        st.one_of(
            st.sampled_from([0.0, 1.0, Fraction(0), Fraction(1)]),
            st.floats(0, 1),
            st.decimals(0, 1, places=8).map(Fraction),
        ),
        st.booleans(),
        st.integers(0, 10**9),
    )
    def test_least_count_passing_the_exact_comparison(self, threshold, strict, total):
        # a float means the decimal of its shortest repr
        t = Fraction(Decimal(repr(threshold))) if isinstance(threshold, float) else threshold

        def passes(count):
            return count > t * total if strict else count >= t * total

        need = min_count(threshold, strict)(total)
        assert passes(need) and not passes(need - 1)


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

    def test_empty_target(self):
        with pytest.raises(ConfigError, match="target_consequent must name at least one item"):
            MiningConfig(target_consequent=())

    def test_rebuilt_config_is_checked(self):
        cfg = MiningConfig(min_support=0.5, max_len=2)
        assert MiningConfig(**vars(cfg)) == cfg
        with pytest.raises(ConfigError):
            MiningConfig(**(vars(cfg) | {"min_support": 2}))


ONE_ITEM = TransactionSet.from_transactions([{0}, set(), {0}], item_ids=[0])
NOTHING_FREQUENT = TransactionSet.from_transactions([{0}, {1}, {2}, set()], item_ids=range(3))
EVERY_ITEM_EVERY_ROW = TransactionSet.from_transactions([{0, 1, 2, 3}] * 5, item_ids=range(4))
NEVER_OCCURRING = TransactionSet.from_transactions([{0, 1}, {1}], item_ids=range(3))


@settings(max_examples=120, deadline=None)
@given(
    transaction_sets(),
    st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5]),
    st.sampled_from([None, 1, 2, 3]),
)
@example(ONE_ITEM, 0.5, None)
@example(ONE_ITEM, 0.0, 1)
@example(NOTHING_FREQUENT, 0.5, None)
@example(EVERY_ITEM_EVERY_ROW, 1.0, None)
@example(EVERY_ITEM_EVERY_ROW, 1.0, 2)
@example(NEVER_OCCURRING, 0.0, None)
def test_oracle_equivalence(ts, min_support, max_len):
    fast = mine_frequent(ts, MiningConfig(min_support=min_support, max_len=max_len))
    slow = brute_frequent(ts, min_support)
    assert fast.counts == {
        s: c for s, c in slow.counts.items() if max_len is None or len(s) <= max_len
    }


@pytest.mark.parametrize(
    "target,max_len,expected",
    [
        ((0,), 1, {(0,): 5}),
        ((0,), 2, {(0,): 5, (0, 1): 5, (1,): 5, (0, 2): 5, (2,): 5, (0, 3): 5, (3,): 5}),
        ((1, 2), 2, {(1, 2): 5}),
        ((1, 2), 1, {}),
        ((1, 2), 3, {(1, 2): 5, (0, 1, 2): 5, (0,): 5, (1, 2, 3): 5, (3,): 5}),
        ((4,), None, {}),  # item 4 is not in the set
    ],
)
def test_class_rule_search_depth_edges(target, max_len, expected):
    # T alone when max_len leaves no room for X, nothing when T itself is too long
    cfg = MiningConfig(min_support=1.0, max_len=max_len, target_consequent=target)
    assert mine_frequent(EVERY_ITEM_EVERY_ROW, cfg).counts == expected

def test_memory_holds_covers_only_along_the_search_path():
    # every one of k items in every row: all 2^k - 1 itemsets are frequent
    k, n = 12, 20_000
    full = (1 << n) - 1
    ts = TransactionSet(n, {i: full for i in range(k)})
    tracemalloc.start()
    try:
        fi = mine_frequent(ts, MiningConfig(min_support=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fi.counts) == 2**k - 1
    # the classes along one search path hold at most k + (k-1) + ... + 1 covers
    path_covers = k * (k + 1) // 2 * sys.getsizeof(full)
    counts = sys.getsizeof(fi.counts) + sum(
        sys.getsizeof(s) + sys.getsizeof(c) for s, c in fi.counts.items()
    )
    # twice that leaves room for the dict's resizes and the class lists
    assert peak <= 2 * (path_covers + counts)
    # keeping one cover per frequent itemset would not fit that bound
    assert 2 * (path_covers + counts) < len(fi.counts) * sys.getsizeof(full)


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


def _rules_or_error(fi, cfg):
    try:
        return generate_rules(fi, cfg).rules
    except UndefinedMetricError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    transaction_sets(max_items=6),
    st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5]),
    st.sampled_from([None, 1, 2, 3]),
)
def test_targeted_counts_are_the_targets_family(data, ts, min_support, max_len):
    # ids up to n_items: the last one is in no row and no cover
    ids = st.integers(0, ts.n_items)
    target = tuple(sorted(data.draw(st.sets(ids, min_size=1, max_size=2))))
    cfg = MiningConfig(min_support=min_support, max_len=max_len, target_consequent=target)
    full = mine_frequent(ts, MiningConfig(**(vars(cfg) | {"target_consequent": None})))
    family = mine_frequent(ts, cfg).counts
    assert family.items() <= full.counts.items()
    supersets = {z for z in full.counts if set(target) <= set(z)}
    assert supersets <= family.keys()
    antecedents = {tuple(i for i in z if i not in target) for z in supersets}
    assert family.keys() - supersets <= antecedents
    fi = FrequentItemsets(family, ts.n_transactions)
    assert _rules_or_error(fi, cfg) == _rules_or_error(full, cfg)
