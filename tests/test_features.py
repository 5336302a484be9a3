from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulemine.core import TransactionSet
from rulemine.errors import ConfigError, UndefinedSupportError
from rulemine.features import (
    FrequencyMap,
    item_frequencies,
    project,
    select_features,
    union_features,
)

from conftest import transaction_sets


def _freq_map(fractions):
    # fixture map over denominator 2000 so every value is exact
    entries = {
        i: (int(f * 2000), Fraction(int(f * 2000), 2000))
        for i, f in enumerate(fractions)
    }
    return FrequencyMap(entries, 2000)


class TestItemFrequencies:
    def test_matches_single_item_support(self):
        ts = TransactionSet.from_transactions([{0, 1}, {0}, {1, 2}], item_ids=range(4))
        freq = item_frequencies(ts)
        assert freq.entries[0] == (2, Fraction(2, 3))
        assert freq.entries[3] == (0, Fraction(0))  # zero-frequency item present

    def test_full_cover(self):
        ts = TransactionSet.from_transactions([{0}], item_ids=[0])
        assert item_frequencies(ts).fraction(0) == 1

    def test_empty_raises(self):
        ts = TransactionSet.from_transactions([], item_ids=[0])
        with pytest.raises(UndefinedSupportError):
            item_frequencies(ts)

    def test_paper_scale(self):
        rows = [{0} if t < 2070 else set() for t in range(2875)]
        ts = TransactionSet.from_transactions(rows, item_ids=[0])
        assert float(item_frequencies(ts).fraction(0)) == pytest.approx(0.72)


class TestSelectFeatures:
    # apnea, cough, fever, weakness, myalgia, sore_throat, conjunctivitis
    FRACS = [0.72, 0.64, 0.59, 0.18, 0.145, 0.12, 0.005]

    def test_threshold_015_excludes_myalgia(self):
        picked = select_features(_freq_map(self.FRACS), 0.15)
        assert picked == [0, 1, 2, 3]

    def test_threshold_one_empty(self):
        assert select_features(_freq_map(self.FRACS), 1.0) == []

    def test_threshold_zero_keeps_nonzero(self):
        fracs = self.FRACS + [0.0]
        assert select_features(_freq_map(fracs), 0.0) == list(range(7))

    def test_strictly_greater(self):
        picked = select_features(_freq_map([0.15, 0.16]), 0.15)
        assert picked == [1]

    def test_frequency_equal_to_threshold_excluded(self):
        # 7/10 is exactly the decimal 0.7, while the float 0.7 is slightly below it
        ts = TransactionSet.from_transactions([{0, 1}] * 7 + [{1}] + [set()] * 2, item_ids=[0, 1])
        assert select_features(item_frequencies(ts), 0.7) == [1]

    def test_out_of_range_threshold(self):
        with pytest.raises(ConfigError):
            select_features(_freq_map(self.FRACS), 1.5)

    def test_threshold_monotone(self):
        fmap = _freq_map(self.FRACS)
        low = set(select_features(fmap, 0.1))
        high = set(select_features(fmap, 0.3))
        assert high <= low


class TestUnionFeatures:
    def test_paper_style_union(self):
        a = [0, 1, 2, 3, 4, 5, 6]          # all-patients list
        b = [0, 2, 1, 5, 4, 3]             # deceased list, different order
        assert union_features(a, b) == a

    def test_union_with_empty(self):
        assert union_features([], [7]) == [7]

    def test_idempotent(self):
        a = [3, 1, 2]
        assert union_features(a, a) == a

    @given(
        st.lists(st.integers(0, 10), unique=True),
        st.lists(st.integers(0, 10), unique=True),
    )
    def test_set_equals_set_union(self, a, b):
        out = union_features(a, b)
        assert set(out) == set(a) | set(b)
        assert len(out) == len(set(out))


class TestProject:
    TS = TransactionSet.from_transactions([{0, 1}, {0}, {1, 2}], item_ids=range(3))

    def test_identity(self):
        p = project(self.TS, self.TS.item_ids())
        assert p.n_transactions == self.TS.n_transactions
        assert all(p.cover_bits(i) == self.TS.cover_bits(i) for i in self.TS.item_ids())

    def test_empty_projection(self):
        p = project(self.TS, [])
        assert p.n_items == 0 and p.n_transactions == 3

    def test_single_item(self):
        from rulemine.core import cover_of

        assert cover_of(project(self.TS, [0]), (0,)) == {0, 1}

    @given(transaction_sets(), st.data())
    def test_frequencies_preserved(self, ts, data):
        keep = data.draw(st.lists(st.sampled_from(ts.item_ids()), unique=True))
        if ts.n_transactions == 0:
            return
        before = item_frequencies(ts)
        after = item_frequencies(project(ts, keep)) if keep else None
        for i in keep:
            assert after.entries[i] == before.entries[i]
