from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rulemine.core import (
    ItemCatalog,
    TransactionSet,
    bits_to_flags,
    canonical_itemset,
    flags_to_bits,
)
from rulemine.errors import ConfigError, InvalidItemError, UndefinedSupportError

from conftest import cover_of, support_of, transaction_sets

# ts = [{A,B},{A},{B,C},{A,B,C}] with A=0, B=1, C=2
TOY = TransactionSet.from_transactions([{0, 1}, {0}, {1, 2}, {0, 1, 2}])


class TestCanonicalItemset:
    def test_dedup_and_sort(self):
        assert canonical_itemset([3, 1, 3]) == (1, 3)

    def test_empty(self):
        assert canonical_itemset([]) == ()

    def test_sorts(self):
        assert canonical_itemset([2, 0, 1]) == (0, 1, 2)

    @given(st.lists(st.integers(min_value=0, max_value=20)))
    def test_idempotent_and_order_free(self, ids):
        once = canonical_itemset(ids)
        assert canonical_itemset(once) == once
        assert canonical_itemset(reversed(ids)) == once


class TestItemCatalog:
    def test_roundtrip(self):
        cat = ItemCatalog(["fever", "cough"])
        assert cat.id_of("fever") == 0
        assert cat.name_of(1) == "cough"
        assert [cat.id_of(cat.name_of(i)) for i in range(len(cat))] == [0, 1]

    def test_unknown_name_raises(self):
        cat = ItemCatalog(["fever"])
        with pytest.raises(InvalidItemError):
            cat.id_of("sneeze")

    def test_unknown_id_raises(self):
        with pytest.raises(InvalidItemError):
            ItemCatalog(["fever"]).name_of(5)

    def test_duplicate_name_rejected(self):
        with pytest.raises(InvalidItemError):
            ItemCatalog(["fever", "fever"])

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidItemError, match="non-empty"):
            ItemCatalog(["a", ""])


class TestCoverOf:
    def test_pair(self):
        assert cover_of(TOY, (0, 1)) == {0, 3}

    def test_empty_itemset_covers_everything(self):
        assert cover_of(TOY, ()) == {0, 1, 2, 3}

    def test_single(self):
        assert cover_of(TOY, (2,)) == {2, 3}

    def test_unknown_item(self):
        with pytest.raises(InvalidItemError):
            cover_of(TOY, (9,))


class TestSupportOf:
    def test_pair(self):
        assert support_of(TOY, (0, 1)) == Fraction(1, 2)

    def test_empty_itemset(self):
        assert support_of(TOY, ()) == 1

    def test_paper_scale_count(self):
        # 2070 of 2875 transactions contain item 0
        rows = [{0} if t < 2070 else set() for t in range(2875)]
        ts = TransactionSet.from_transactions(rows, item_ids=[0])
        assert support_of(ts, (0,)) == Fraction(2070, 2875)
        assert float(support_of(ts, (0,))) == pytest.approx(0.72)

    def test_empty_database_raises(self):
        empty = TransactionSet.from_transactions([], item_ids=[0])
        with pytest.raises(UndefinedSupportError):
            support_of(empty, (0,))


class TestTransactionSet:
    def test_cover_out_of_range_rejected(self):
        with pytest.raises(InvalidItemError):
            TransactionSet(2, {0: 0b100})

    def test_exact_single_item_support(self):
        for i in TOY.item_ids():
            assert support_of(TOY, (i,)) == Fraction(
                TOY.cover_bits(i).bit_count(), TOY.n_transactions
            )

    def test_negative_row_count_rejected(self):
        with pytest.raises(ConfigError, match="n_transactions must be >= 0"):
            TransactionSet(-1, {})

    def test_item_outside_the_universe_rejected(self):
        with pytest.raises(InvalidItemError, match="transaction 0 uses unknown item id 5"):
            TransactionSet.from_transactions([[5]], item_ids=[0])

    def test_transactions_roundtrip(self):
        rows = [{0, 1}, set(), {2}]
        ts = TransactionSet.from_transactions(rows, item_ids=range(3))
        assert ts.transactions() == [frozenset(r) for r in rows]


@given(st.integers(min_value=0, max_value=(1 << 80) - 1), st.integers(min_value=0, max_value=70))
@example(0b111, 2)  # bits at or above n are not flags
@example(0b101, 0)
def test_bits_to_flags_is_the_n_low_bits_row_0_first(bits, n):
    flags = bits_to_flags(bits, n)
    assert len(flags) == n
    assert flags_to_bits(flags) == bits & ((1 << n) - 1)


@given(transaction_sets(), st.data())
def test_anti_monotonicity(ts, data):
    items = ts.item_ids()
    y = canonical_itemset(data.draw(st.sets(st.sampled_from(items))))
    x = canonical_itemset(data.draw(st.sets(st.sampled_from(items)))) if items else ()
    assert support_of(ts, canonical_itemset(x + y)) <= min(
        support_of(ts, x), support_of(ts, y)
    )
    sub = y[: len(y) // 2]
    assert support_of(ts, sub) >= support_of(ts, y)


@given(transaction_sets(), st.data())
def test_cover_intersection_law(ts, data):
    items = ts.item_ids()
    s1 = canonical_itemset(data.draw(st.sets(st.sampled_from(items))))
    s2 = canonical_itemset(data.draw(st.sets(st.sampled_from(items))))
    assert cover_of(ts, canonical_itemset(s1 + s2)) == cover_of(ts, s1) & cover_of(ts, s2)


@given(transaction_sets(), st.randoms(use_true_random=False))
def test_support_invariant_under_row_permutation(ts, rng):
    rows = ts.transactions()
    shuffled = list(rows)
    rng.shuffle(shuffled)
    ts2 = TransactionSet.from_transactions(shuffled, item_ids=ts.item_ids())
    for i in ts.item_ids():
        assert support_of(ts, (i,)) == support_of(ts2, (i,))
