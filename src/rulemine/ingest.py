"""Patient CSV parsing, derived items, cohort filters, transaction building.

A CSV has a header row; the columns ``id``, ``age``, ``sex``, ``outcome``
and ``lab_result`` are reserved (case-sensitive), everything else is a
binary symptom column. Demographic/outcome items are injected as extra
transaction items so they can appear inside rules.

Tables are columnar from the CSV to the miner: each symptom column is one
row bitset and each reserved column one per-row list. Parsing transposes
fixed-size chunks of rows into columns, and cohort filters, derived items
and the sparse-patient drop work on whole columns, so every stage takes
time linear in the number of cells.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress, islice, repeat

from .core import (
    ItemCatalog,
    Itemset,
    TransactionSet,
    bits_to_flags,
    compact_bits,
    flags_to_bits,
    row_selector,
)
from .errors import ConfigError, InternalError, ParseError, RuleMineError, SchemaError

RESERVED_COLUMNS = ("id", "age", "sex", "outcome", "lab_result")

AGE_BUCKETS = ("<20", "20-40", "40-60", ">60")
SEX_ITEMS = ("Male", "Female")
OUTCOME_ITEMS = ("Recovery", "Death")
LAB_ITEMS = ("Lab_Res_Pos", "Lab_Res_Neg")

CHUNK_ROWS = 4096  # CSV rows transposed into columns at a time


@dataclass
class PatientRecord:
    age: int | None
    sex: str | None
    outcome: str | None
    lab_result: str | None
    symptoms: dict[str, int]


@dataclass
class PatientTable:
    """Columnar patient table.

    ``covers[j]`` is the row bitset of ``symptom_columns[j]`` (bit t set
    when row t has the symptom). ``age``, ``sex``, ``outcome`` and
    ``lab_result`` hold one value per row, None where the cell is empty or
    the column absent. ``lines`` gives each row's CSV line for error
    messages; by default row t is line t + 2, as ``serialize_patient_csv``
    writes it.
    """

    symptom_columns: list[str]
    covers: list[int]
    age: list[int | None]
    sex: list[str | None]
    outcome: list[str | None]
    lab_result: list[str | None]
    lines: Sequence[int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lines is None:
            self.lines = range(2, len(self.age) + 2)

    def __len__(self) -> int:
        return len(self.age)

    @property
    def rows(self) -> Sequence[PatientRecord]:
        """Read-only row view, one PatientRecord built per access."""
        return _RowView(self)


class _RowView(Sequence):
    def __init__(self, table: PatientTable):
        self._table = table
        self._flags = [bits_to_flags(c, len(table)) for c in table.covers]

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        t = self._table
        symptoms = {name: int(f[k]) for name, f in zip(t.symptom_columns, self._flags)}
        return PatientRecord(t.age[k], t.sex[k], t.outcome[k], t.lab_result[k], symptoms)


@dataclass
class DerivationConfig:
    age_buckets_enabled: bool = False
    include_sex: bool = False
    include_outcome: bool = False
    include_lab: bool = False

    def derived_names(self) -> list[str]:
        names: list[str] = []
        if self.age_buckets_enabled:
            names.extend(AGE_BUCKETS)
        if self.include_sex:
            names.extend(SEX_ITEMS)
        if self.include_outcome:
            names.extend(OUTCOME_ITEMS)
        if self.include_lab:
            names.extend(LAB_ITEMS)
        return names


@dataclass
class CohortSelector:
    kind: str  # all | deceased | recovered | age_range
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self):
        if self.kind not in ("all", "deceased", "recovered", "age_range"):
            raise ConfigError(f"unknown cohort selector: {self.kind!r}")
        if self.kind == "age_range":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ConfigError("age_range needs lo < hi")


def age_bucket(age: int) -> str:
    """Half-open buckets: [0,20), [20,40), [40,60), [60,inf)."""
    if age < 20:
        return "<20"
    if age < 40:
        return "20-40"
    if age < 60:
        return "40-60"
    return ">60"


def _age_cell(v: str) -> int | None:
    if not v:
        return None
    age = int(v)
    if age < 0:
        raise ValueError(v)
    return age


_CHOICES = {"sex": ("M", "F"), "outcome": ("recovered", "deceased"), "lab_result": ("pos", "neg")}
# reserved column -> parser of one cell; ValueError or KeyError marks a bad cell
_CELLS = {
    "age": _age_cell,
    **{name: {"": None, a: a, b: b}.__getitem__ for name, (a, b) in _CHOICES.items()},
}
_FLAG_CELLS = frozenset("01")


def parse_patient_csv(source: str | Iterable[str]) -> PatientTable:
    """Parse a patient CSV into a PatientTable.

    ``source`` is the CSV text or a text file opened with ``newline=""``;
    a file is read CHUNK_ROWS rows at a time, so the text is never held
    whole. Symptom cells must be exactly 0 or 1; anything else is a hard
    parse error (no imputation) naming the CSV row and column.
    """
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    try:
        return _parse(reader)
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None


def _parse(reader) -> PatientTable:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: no header row") from None
    if len(header) != len(set(header)):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise SchemaError(f"duplicate header names: {', '.join(dupes)}")
    symptom_columns = [c for c in header if c not in RESERVED_COLUMNS]
    col_index = {c: k for k, c in enumerate(header)}

    flags: list[list[str]] = [[] for _ in symptom_columns]
    reserved: dict[str, list] = {name: [] for name in _CELLS}
    lines = array("q")
    for chunk, chunk_lines in _chunks(reader):
        # whole-column checks; the first bad row is found by rescanning
        try:
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError("cell count")
            cols = list(zip(*chunk))
            for name, values in reserved.items():
                k = col_index.get(name)
                values.extend(repeat(None, len(chunk)) if k is None else map(_CELLS[name], cols[k]))
            for j, name in enumerate(symptom_columns):
                col = cols[col_index[name]]
                if not _FLAG_CELLS.issuperset(col):
                    raise ValueError(name)
                flags[j].append("".join(col))
        except (ValueError, KeyError):
            raise _first_error(chunk, chunk_lines, col_index, symptom_columns) from None
        lines.extend(chunk_lines)

    covers = [flags_to_bits("".join(parts)) for parts in flags]
    return PatientTable(symptom_columns, covers, **reserved, lines=lines)


def _chunks(reader) -> Iterator[tuple[list[list[str]], Sequence[int]]]:
    """Non-blank rows, up to CHUNK_ROWS at a time, with their CSV line numbers."""
    lineno = 1  # the header's
    while chunk := list(islice(reader, CHUNK_ROWS)):
        lines: Sequence[int] = range(lineno + 1, lineno + 1 + len(chunk))
        lineno += len(chunk)
        if [] in chunk:  # blank lines
            kept = [k for k, cells in enumerate(chunk) if cells]
            chunk, lines = [chunk[k] for k in kept], [lines[k] for k in kept]
        if chunk:
            yield chunk, lines


def _first_error(
    chunk: list[list[str]], lines: Sequence[int], col_index: dict[str, int], symptoms: list[str]
) -> RuleMineError:
    """The error of the chunk's first bad row, checking each row cell by cell."""
    for cells, lineno in zip(chunk, lines):
        if len(cells) != len(col_index):
            return ParseError(f"row {lineno}: expected {len(col_index)} cells, got {len(cells)}")
        present = {name: cells[k] for name, k in col_index.items()}
        raw = present.get("age", "")
        if raw:
            try:
                age = int(raw)
            except ValueError:
                return ParseError(f"row {lineno}, column age: not an integer: {raw!r}")
            if age < 0:
                return ParseError(f"row {lineno}, column age: negative age {age}")
        for name, (a, b) in _CHOICES.items():
            v = present.get(name, "")
            if v not in ("", a, b):
                return ParseError(f"row {lineno}, column {name}: expected {a} or {b}, got {v!r}")
        for name in symptoms:
            v = cells[col_index[name]]
            if v not in _FLAG_CELLS:
                return ParseError(f"row {lineno}, column {name}: expected 0 or 1, got {v!r}")
    return InternalError("a chunk failed a column check but none of its rows did")


def serialize_patient_csv(table: PatientTable) -> str:
    """Inverse of parse_patient_csv for the columns the table carries."""
    header: list[str] = []
    columns: list[Sequence[str]] = []
    for name in _CELLS:
        values = getattr(table, name)
        if values.count(None) < len(values):
            header.append(name)
            columns.append(["" if v is None else str(v) for v in values])
    header.extend(table.symptom_columns)
    columns.extend(bits_to_flags(c, len(table)) for c in table.covers)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def cohort_mask(table: PatientTable, sel: CohortSelector) -> int:
    """Row bitset of the patients ``sel`` selects."""
    if sel.kind == "all":
        return (1 << len(table)) - 1
    if sel.kind in ("deceased", "recovered"):
        if None in table.outcome:
            raise SchemaError("cohort filter needs the outcome column")
        return _rows_where(table.outcome, sel.kind)  # the kinds are the outcome values
    if None in table.age:
        raise SchemaError("age_range cohort filter needs the age column")
    return flags_to_bits("".join(["1" if sel.lo <= a < sel.hi else "0" for a in table.age]))


def _rows_where(values: Sequence, value) -> int:
    """Row bitset of the rows whose value equals ``value``."""
    return flags_to_bits("".join(["1" if v == value else "0" for v in values]))


def filter_cohort(table: PatientTable, sel: CohortSelector) -> PatientTable:
    """The rows ``sel`` selects, order preserved; ``all`` returns ``table`` itself."""
    if sel.kind == "all":
        return table
    n = len(table)
    selector = row_selector(cohort_mask(table, sel), n)
    in_row_order = selector[::-1]
    return PatientTable(
        list(table.symptom_columns),
        [compact_bits(c, n, selector) for c in table.covers],
        *(list(compress(getattr(table, name), in_row_order)) for name in _CELLS),
        lines=array("q", compress(table.lines, in_row_order)),
    )


def build_catalog(table: PatientTable, cfg: DerivationConfig) -> ItemCatalog:
    """Catalog with symptom columns in CSV order followed by derived items."""
    return ItemCatalog(table.symptom_columns + cfg.derived_names())


# derived item -> (reserved column, the value that sets it)
_DERIVED = {
    **{bucket: ("age", bucket) for bucket in AGE_BUCKETS},
    "Male": ("sex", "M"),
    "Female": ("sex", "F"),
    "Recovery": ("outcome", "recovered"),
    "Death": ("outcome", "deceased"),
    "Lab_Res_Pos": ("lab_result", "pos"),
    "Lab_Res_Neg": ("lab_result", "neg"),
}


def derive_items(
    table: PatientTable, cfg: DerivationConfig, catalog: ItemCatalog
) -> TransactionSet:
    """One transaction per patient: flagged symptoms plus derived items.

    When enabled, each transaction gets exactly one age-bucket item, one
    sex item, one outcome item, and one lab item (the latter only for rows
    that carry a lab result). Symptom covers pass through unchanged; each
    derived item's cover is built from its reserved column.
    """
    needed = [
        (name, getattr(table, name))
        for name, on in (
            ("age", cfg.age_buckets_enabled),
            ("sex", cfg.include_sex),
            ("outcome", cfg.include_outcome),
        )
        if on
    ]
    # the first row missing a needed value, and its first missing column
    missing = [(values.index(None), k) for k, (_, values) in enumerate(needed) if None in values]
    if missing:
        t, k = min(missing)
        name = needed[k][0]
        raise SchemaError(f"row {table.lines[t]}: {name} derivation enabled but {name} missing")

    columns = {name: getattr(table, name) for name in ("sex", "outcome", "lab_result")}
    if cfg.age_buckets_enabled:
        columns["age"] = list(map(age_bucket, table.age))
    covers = dict.fromkeys(range(len(catalog)), 0)
    for name, bits in zip(table.symptom_columns, table.covers):
        covers[catalog.id_of(name)] = bits
    for name in cfg.derived_names():
        column, value = _DERIVED[name]
        covers[catalog.id_of(name)] = _rows_where(columns[column], value)
    return TransactionSet(len(table), covers)


def drop_sparse_patients(
    ts: TransactionSet, clinical_items: Itemset, min_count: int = 2
) -> TransactionSet:
    """Keep transactions containing at least min_count clinical items.

    Derived demographic/outcome items never count toward the threshold;
    only ids listed in ``clinical_items`` do. Rows are counted bit-sliced,
    one cover at a time: O(len(clinical_items) * min_count) bitset ops.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    n = ts.n_transactions
    # no row holds more than len(clinical_items) of them
    k = min(min_count, len(clinical_items) + 1)
    # at_least[j]: rows holding at least j of the clinical covers seen so far
    at_least = [(1 << n) - 1] + [0] * k
    for i in clinical_items:
        bits = ts.cover_bits(i)
        for j in range(k, 0, -1):
            at_least[j] |= at_least[j - 1] & bits
    selector = row_selector(at_least[k], n)
    covers = {i: compact_bits(ts.cover_bits(i), n, selector) for i in ts.item_ids()}
    return TransactionSet(at_least[k].bit_count(), covers)
