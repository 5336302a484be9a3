import random
from fractions import Fraction
from itertools import compress

from hypothesis import strategies as st

from rulemine.core import Itemset, TransactionSet, row_codes
from rulemine.errors import UndefinedSupportError


def cover_bits_of(ts: TransactionSet, s: Itemset) -> int:
    """Bitset of transactions containing every item of s (``ts.rows`` for s=())."""
    bits = ts.rows
    for i in s:
        bits &= ts.cover_bits(i)
    return bits


def cover_of(ts: TransactionSet, s: Itemset) -> set[int]:
    """Set of the transactions, numbered 0..n-1, containing every item of s."""
    n = ts.n_transactions
    return set(compress(range(n), row_codes([cover_bits_of(ts.compact(), s)], n)))


def support_of(ts: TransactionSet, s: Itemset) -> Fraction:
    """Exact support |cover(s)| / n_transactions as a Fraction."""
    if ts.n_transactions == 0:
        raise UndefinedSupportError("support is undefined over an empty transaction set")
    return Fraction(cover_bits_of(ts, s).bit_count(), ts.n_transactions)


@st.composite
def transaction_sets(draw, max_items=8, max_transactions=30, min_transactions=1):
    """Random small TransactionSet with a fixed item universe."""
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    rows = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n_items - 1)),
            min_size=min_transactions,
            max_size=max_transactions,
        )
    )
    return TransactionSet.from_transactions(rows, item_ids=range(n_items))


def random_transaction_set(rng: random.Random, max_items=10, max_transactions=64):
    """Seeded random TransactionSet for loop-style property checks."""
    n_items = rng.randint(2, max_items)
    n_rows = rng.randint(1, max_transactions)
    density = rng.uniform(0.1, 0.7)
    rows = [
        {i for i in range(n_items) if rng.random() < density} for _ in range(n_rows)
    ]
    return TransactionSet.from_transactions(rows, item_ids=range(n_items))
