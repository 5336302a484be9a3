"""Items, itemsets, and the immutable vertical transaction store.

Itemsets are plain tuples of item ids in strictly increasing order (the
canonical form); tuple equality and ordering then coincide with itemset
equality and a total order. Transaction covers are stored one Python int
per item, bit t set when row t contains the item, so an itemset's cover
is a chain of ``&`` and its count that cover's ``bit_count()``. Row
bitsets have one per-row form, a code string of one byte per row, row 0
first: ``row_codes`` writes it and ``code_rows`` reads it back, in linear
time. A TransactionSet drops rows by restricting its row set, which is
one AND per cover and renumbers nothing.
``Record`` is the base of the package's plain config and result classes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import compress

from .errors import ConfigError, InvalidItemError

Itemset = tuple[int, ...]


class Record:
    """A plain class compared and shown by its instance attributes.

    Two instances of one class are ``==`` when their attributes are,
    bar the names in ``_uncompared``, which the repr leaves out too.
    """

    _uncompared: frozenset[str] = frozenset()

    def _fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._uncompared}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__name__}({fields})"


class ItemCatalog:
    """Bidirectional mapping between item names and dense ids 0..n-1."""

    def __init__(self, names: Sequence[str]):
        seen = set()
        for name in names:
            if not name:
                raise InvalidItemError("item name must be non-empty")
            if name in seen:
                raise InvalidItemError(f"duplicate item name: {name!r}")
            seen.add(name)
        self._names = list(names)
        self._ids = {name: i for i, name in enumerate(self._names)}

    def __len__(self) -> int:
        return len(self._names)

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise InvalidItemError(f"unknown item name: {name!r}") from None

    def name_of(self, item_id: int) -> str:
        if 0 <= item_id < len(self._names):
            return self._names[item_id]
        raise InvalidItemError(f"unknown item id: {item_id}")

    def __contains__(self, name: str) -> bool:
        return name in self._ids


def bits_to_flags(bits: int, n: int) -> str:
    """The n low bits of ``bits`` as a '0'/'1' string, row 0 first."""
    return format(bits, f"0{n}b")[::-1][:n]


def flags_to_bits(flags: str | bytes) -> int:
    """Inverse of bits_to_flags: bit t is set when flags[t] is '1'."""
    return int(flags[::-1], 2) if flags else 0


_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def row_codes(bitsets: Iterable[int], n: int) -> bytes:
    """One byte per row of rows 0..n-1, row 0 first: k where the row is in
    the k-th of the disjoint ``bitsets``, counting from 1, else 0. Each
    bitset's 0/1 bytes, read as an int, has row 0 as its top byte; k times
    it is summed, and no byte carries into the next."""
    fmt, full = f"0{n}b", (1 << n) - 1
    total = sum(k * int.from_bytes(format(bits & full, fmt).encode().translate(_BYTE), "little")
                for k, bits in enumerate(bitsets, 1))
    return total.to_bytes(n, "big")


def code_rows(codes: bytes, k: int) -> int:
    """The bitset of the rows whose byte in ``codes`` (``row_codes``) is k, by one translate."""
    return flags_to_bits(codes.translate(b"0" * k + b"1" + b"0" * (255 - k)))


_DROP = bytes.maketrans(b"01", b"\x40\x00")


def row_compactor(keep: int, n: int) -> Callable[[int], int]:
    """The function taking a row bitset over n rows to its rows in ``keep``,
    renumbered in order.

    A bitset is formatted as one '0'/'1' byte (0x30/0x31) per row; OR-ing
    in 0x40 on the dropped rows makes those bytes 'p'/'q', and
    ``bytes.translate`` deletes them.
    """
    if not n:
        return lambda bits: 0
    fmt = f"0{n}b"
    drop = int.from_bytes(format(keep, fmt).encode().translate(_DROP), "big")

    def compact(bits: int) -> int:
        flags = int.from_bytes(format(bits, fmt).encode(), "big") | drop
        kept = flags.to_bytes(n, "big").translate(None, b"pq")
        return int(kept, 2) if kept else 0

    return compact


def canonical_itemset(items: Iterable[int]) -> Itemset:
    """Sort and deduplicate item ids into the canonical tuple form."""
    return tuple(sorted(set(items)))


class TransactionSet:
    """Immutable binary transaction database in vertical (per-item) form.

    The transactions are the rows set in the bitset ``rows``, and
    ``covers`` maps item id -> bitset int over those rows. The
    ``(n_transactions, covers)`` constructor takes rows 0..n-1; ``restrict``
    keeps a subset of them without renumbering, so after a drop each cover
    still has the parse's row numbers and a row bitset taken before it
    means the same rows. ``compact`` numbers the transactions 0..n-1 in
    row order, as the horizontal view ``transactions()`` does. The
    mapping is copied at construction and never mutated afterwards, so a
    TransactionSet can be shared freely.
    """

    def __init__(self, n_transactions: int, covers: Mapping[int, int]):
        if n_transactions < 0:
            raise ConfigError("n_transactions must be >= 0")
        full = (1 << n_transactions) - 1
        for item_id, bits in covers.items():
            if bits & ~full:
                raise InvalidItemError(
                    f"cover of item {item_id} references transactions"
                    f" >= {n_transactions}"
                )
        self._rows = full
        self._n = n_transactions
        self._covers = dict(covers)

    @classmethod
    def from_transactions(
        cls, transactions: Sequence[Iterable[int]], item_ids: Iterable[int] | None = None
    ) -> "TransactionSet":
        """Build from a horizontal list of transactions (iterables of ids).

        ``item_ids`` fixes the item universe; by default it is the union of
        ids seen in the transactions.
        """
        rows = [set(t) for t in transactions]
        if item_ids is None:
            universe = set()
            for row in rows:
                universe |= row
        else:
            universe = set(item_ids)
        # one '0'/'1' byte per row and item, converted to an int once
        flags = {i: bytearray(b"0") * len(rows) for i in universe}
        for t, row in enumerate(rows):
            for i in row:
                try:
                    flags[i][t] = 49  # ord("1")
                except KeyError:
                    raise InvalidItemError(f"transaction {t} uses unknown item id {i}") from None
        return cls(len(rows), {i: flags_to_bits(f) for i, f in flags.items()})

    def restrict(self, rows: int, items: Iterable[int] | None = None) -> "TransactionSet":
        """The transactions in both ``rows`` and this set, holding only
        ``items`` (all of this set's by default): each cover ANDed with
        the kept rows, no row renumbered."""
        rows &= self._rows
        ts = object.__new__(TransactionSet)
        ts._rows = rows
        ts._n = rows.bit_count()
        ids = self._covers if items is None else items
        ts._covers = {i: self.cover_bits(i) & rows for i in ids}
        return ts

    def compact(self) -> "TransactionSet":
        """The same transactions, numbered 0..n-1 in row order."""
        renumber = row_compactor(self._rows, self._rows.bit_length())
        return TransactionSet(self._n, {i: renumber(b) for i, b in self._covers.items()})

    @property
    def rows(self) -> int:
        """The bitset of the rows that are this set's transactions."""
        return self._rows

    @property
    def n_transactions(self) -> int:
        return self._n

    @property
    def n_items(self) -> int:
        return len(self._covers)

    def item_ids(self) -> list[int]:
        return sorted(self._covers)

    def cover_bits(self, item_id: int) -> int:
        try:
            return self._covers[item_id]
        except KeyError:
            raise InvalidItemError(f"unknown item id: {item_id}") from None

    def transactions(self) -> list[frozenset[int]]:
        """Horizontal view: one frozenset of item ids per transaction."""
        n = self._n
        rows: list[set[int]] = [set() for _ in range(n)]
        for item_id, bits in self.compact()._covers.items():
            for t in compress(range(n), row_codes([bits], n)):
                rows[t].add(item_id)
        return [frozenset(r) for r in rows]

