"""The one per-row form of row bitsets: ``row_codes`` writes disjoint
bitsets as one code byte per row, row 0 first, and ``code_rows`` reads
each code's bitset back."""

from itertools import compress

from hypothesis import example, given
from hypothesis import strategies as st

from rulemine.core import code_rows, row_codes


@st.composite
def disjoint_bitsets(draw):
    """(bitsets, n): up to 255 disjoint bitsets, with rows at and above n."""
    n = draw(st.integers(0, 70))
    k = draw(st.sampled_from([0, 1, 2, 3, 7, 255]))
    codes = draw(st.lists(st.integers(0, k), min_size=n, max_size=n + 20))
    return [sum(1 << t for t, c in enumerate(codes) if c == j) for j in range(1, k + 1)], n


@given(disjoint_bitsets())
def test_code_rows_reads_back_each_bitset_within_n_rows(drawn):
    bitsets, n = drawn
    full = (1 << n) - 1
    codes = row_codes(bitsets, n)
    assert len(codes) == n
    for k, bits in enumerate(bitsets, 1):
        assert code_rows(codes, k) == bits & full
    assert code_rows(codes, 0) == full & ~sum(bitsets)
    assert list(codes) == [next((k for k, bits in enumerate(bitsets, 1) if bits >> t & 1), 0)
                           for t in range(n)]


@given(st.integers(0, 70), st.integers(0, 1 << 90))
def test_one_bitset_is_the_mask_compress_takes(n, bits):
    mask = row_codes([bits], n)
    assert set(mask) <= {0, 1}
    assert list(compress(range(n), mask)) == [t for t in range(n) if bits >> t & 1]


@given(st.binary(max_size=70))
@example(bytes(range(256)))  # every code, so both ends of the translate table
def test_code_rows_is_the_rows_of_each_code(codes):
    for k in range(256):
        assert code_rows(codes, k) == sum(1 << t for t, c in enumerate(codes) if c == k)
