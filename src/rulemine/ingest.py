"""Patient CSV parsing, derived items, cohort filters, transaction building.

A CSV has a header row; the columns ``id``, ``age``, ``sex``, ``outcome``
and ``lab_result`` are reserved (case-sensitive), everything else is a
binary symptom column. Demographic/outcome items are injected as extra
transaction items so they can appear inside rules.

Tables are columnar from the CSV to the miner: each symptom column is one
row bitset, ``sex``, ``outcome`` and ``lab_result`` are one row bitset per
value, and ``age`` is one per-row list. Parsing turns blocks of about
CHUNK_ROWS (1024) lines into columns, and cohort filters, derived items
and the sparse-patient drop work on whole columns, so every stage takes
time linear in the number of cells. The per-row work runs inside str and
bytes methods: every chunk, under any header, is cut by slicing each line
before the symptoms after its first L cells (one past the last reserved
column, or 1 when there is none), which are then sliced into columns by
character; the heads' commas are counted in one ``bytes.translate`` and
the heads split at commas as one string, so no line becomes a list. The
csv.reader records read from the first block holding a quote are joined
back into lines, ids blanked. A file with at most MEMO_HEADS (4096) distinct
heads has each parsed once: every row takes its head's values from a
memo of the heads parsed so far (about 400 in the 50k cohort), which
starts over rather than hold more. Per-row codes live only inside a
chunk: ``core.code_rows`` turns a chunk's code bytes of a bitset column
into its value bitsets, and one loop merges every chunk bitset. A
cohort (``cohort_rows``) and the sparse drop each restrict the
TransactionSet's row set, so no row is renumbered before the miner. LF,
CRLF and a lone CR each end a line. Row line numbers are an ``array``
only from the first row that is not on line t + 2; before that a ``range``.

One parser per reserved column (``_CELLS``) decides whether a cell is
valid and, when it is not, gives the error's text, both when a chunk is
parsed as columns and when a rejected chunk is checked row by row.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, compress, repeat
from operator import itemgetter, or_

from .core import (
    ItemCatalog,
    Itemset,
    Record,
    TransactionSet,
    code_rows,
    flags_to_bits,
    row_codes,
    row_compactor,
)
from .errors import ConfigError, InternalError, ParseError, RuleMineError, SchemaError

# age bucket -> its half-open range [lo, hi) of ages, in catalog order
AGE_BUCKETS = {"<20": (0, 20), "20-40": (20, 40), "40-60": (40, 60), ">60": (60, math.inf)}
# reserved column -> {cell value: the derived item it sets}, in catalog order;
# an age's value is its bucket
_ITEMS = {
    "age": {bucket: bucket for bucket in AGE_BUCKETS},
    "sex": {"M": "Male", "F": "Female"},
    "outcome": {"recovered": "Recovery", "deceased": "Death"},
    "lab_result": {"pos": "Lab_Res_Pos", "neg": "Lab_Res_Neg"},
}
RESERVED_COLUMNS = ("id", *_ITEMS)
# the cohorts CohortSelector takes: every row, one outcome's rows, or an age range
_COHORTS = ("all", *_ITEMS["outcome"], "age_range")

CHUNK_ROWS = 1024  # about this many CSV rows are read and turned into columns at a time
MEMO_HEADS = 4 * CHUNK_ROWS  # at most about this many distinct heads are kept parsed at a time


# one row of a PatientTable, built on access by PatientTable.rows
PatientRecord = namedtuple("PatientRecord", "age sex outcome lab_result symptoms")


class PatientTable(Record):
    """Columnar patient table.

    ``covers[j]`` is the row bitset of ``symptom_columns[j]`` (bit t set
    when row t has the symptom). ``sex``, ``outcome`` and ``lab_result``
    each map every value of the column, in catalog order, to its row
    bitset; a row in none of them has the cell empty or the column absent
    (``missing``). ``age`` holds one value per row, None where the cell is
    empty or the column absent. ``lines`` gives each row's CSV line for
    error messages; by default row t is line t + 2, as
    ``synth.serialize_patient_csv`` writes it. Tables equal but for ``lines``
    are ``==``.
    """

    _uncompared = frozenset({"lines"})

    def __init__(
        self,
        symptom_columns: list[str],
        covers: list[int],
        age: list[int | None],
        sex: dict[str, int],
        outcome: dict[str, int],
        lab_result: dict[str, int],
        lines: Sequence[int] | None = None,
    ):
        self.symptom_columns = symptom_columns
        self.covers = covers
        self.age = age
        self.sex = sex
        self.outcome = outcome
        self.lab_result = lab_result
        self.lines = range(2, len(age) + 2) if lines is None else lines

    def __len__(self) -> int:
        return len(self.age)

    def missing(self, name: str) -> int:
        """The rows with no value in the reserved column ``name`` (not
        ``id``): an empty cell or an absent column."""
        if name == "age":
            return value_rows(self.age, lambda a: a is None).get(True, 0) if None in self.age else 0
        return ((1 << len(self)) - 1) & ~reduce(or_, getattr(self, name).values(), 0)

    @property
    def rows(self) -> Sequence[PatientRecord]:
        """Read-only row view, one PatientRecord built per access."""
        return _RowView(self)


class _RowView(Sequence):
    def __init__(self, table: PatientTable):
        n = len(table)
        self._table = table
        self._flags = [row_codes([c], n) for c in table.covers]
        self._codes = [row_codes(getattr(table, name).values(), n) for name in CODED]

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        t = self._table
        symptoms = {name: f[k] for name, f in zip(t.symptom_columns, self._flags)}
        coded = [values[codes[k]] for values, codes in zip(CODED.values(), self._codes)]
        return PatientRecord(t.age[k], *coded, symptoms)


class DerivationConfig(Record):
    """Which reserved columns become derived items."""

    def __init__(
        self,
        age_buckets_enabled: bool = False,
        include_sex: bool = False,
        include_outcome: bool = False,
        include_lab: bool = False,
    ):
        self.age_buckets_enabled = age_buckets_enabled
        self.include_sex = include_sex
        self.include_outcome = include_outcome
        self.include_lab = include_lab

    def columns(self) -> list[str]:
        """The reserved columns whose derived items are enabled."""
        on = (self.age_buckets_enabled, self.include_sex, self.include_outcome, self.include_lab)
        return [column for column, enabled in zip(_ITEMS, on) if enabled]

    def derived_names(self) -> list[str]:
        return [item for column in self.columns() for item in _ITEMS[column].values()]


class CohortSelector(Record):
    """The rows one cohort keeps: all, one outcome's rows, or ages in [lo, hi)."""

    def __init__(self, kind: str, lo: int | None = None, hi: int | None = None):
        if kind not in _COHORTS:
            raise ConfigError(f"unknown cohort selector: {kind!r}")
        if kind == "age_range":
            if lo is None or hi is None or not lo < hi:
                raise ConfigError("age_range needs lo < hi")
        self.kind = kind
        self.lo = lo
        self.hi = hi


def age_bucket(age: int | None) -> str | None:
    """The first of AGE_BUCKETS whose range ends above ``age``; None for no age."""
    return None if age is None else next(b for b, (_, hi) in AGE_BUCKETS.items() if age < hi)


# The cell grammar of the reserved columns: each parser returns a cell's
# value, None for an empty cell, and raises ValueError with the user message.
def _age_cell(v: str) -> int | None:
    if not v:
        return None
    digits = v[1:] if v[0] == "-" else v  # an optional "-", then ASCII digits only
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        age = int(v)  # refuses more digits than sys.get_int_max_str_digits() too
    except ValueError:
        raise ValueError(f"not an integer: {v!r}") from None
    if age < 0:
        raise ValueError(f"negative age {age}")
    return age


def _choice_cell(a: str, b: str) -> Callable[[str], str | None]:
    def parse(v: str) -> str | None:
        if v not in ("", a, b):
            raise ValueError(f"expected {a} or {b}, got {v!r}")
        return v or None

    return parse


# reserved column -> parser of one cell, in the order a row's cells are checked
_CELLS = {
    name: _age_cell if name == "age" else _choice_cell(*values) for name, values in _ITEMS.items()
}
# reserved column held as row bitsets -> its values by code byte, for the parser here and
# synth's writer: None (an empty cell or an absent column) is 0, and the k-th value is k
CODED = {name: (None, *values) for name, values in _ITEMS.items() if name != "age"}
_FLAG_CELLS = frozenset("01")
_NOT_COMMA_OR_LF = bytes(b for b in range(256) if b not in b",\n")


def parse_patient_csv(source: str | io.TextIOBase) -> PatientTable:
    """Parse a patient CSV into a PatientTable.

    ``source`` is the CSV text or a text file opened with ``newline=""``
    (text is read as such a file, so LF, CRLF and CR line ends all work);
    it is read in blocks of about CHUNK_ROWS lines, so the text is never
    held whole. Symptom cells must be exactly 0 or 1; anything else is a
    hard parse error (no imputation) naming the CSV row and column.

    csv.reader reads the header; a name must be non-empty, with no comma
    or surrounding whitespace. Every chunk, quote-free lines or csv records
    joined back into lines, becomes ages and row bitsets (no per-row code
    outlives it) by ``_chunk_columns``; a chunk it rejects is checked row
    by row for the first error's message. A row's number is the CSV line
    it starts on.
    """
    fh = io.StringIO(source, newline="") if isinstance(source, str) else source
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: no header row") from None
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    for k, name in enumerate(header, 1):
        if not name:
            raise SchemaError(f"row 1: column {k} has an empty header name")
        if name != name.strip() or "," in name:  # no flag could name its item
            raise SchemaError(f"row 1: column {k} name {name!r} has a comma or outer whitespace")
    if len(header) != len(set(header)):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise SchemaError(f"duplicate header names: {', '.join(dupes)}")
    symptom_columns = [c for c in header if c not in RESERVED_COLUMNS]
    # one past the last reserved column, or 1: the symptoms after it are each line's tail
    lead = max((k + 1 for k, c in enumerate(header) if c in RESERVED_COLUMNS), default=1)
    blank = header.index("id") if "id" in header else None  # the cell no value is read from

    # each row bitset (_chunk_columns) so far as bytes, row 0 the low bit of
    # byte 0; the last byte holds the rows past the last multiple of 8
    n_bitsets = len(symptom_columns) + sum(len(by_code) - 1 for by_code in CODED.values())
    merged = [bytearray() for _ in range(n_bitsets)]
    ages: list[int | None] = []
    line_numbers = None  # every row so far is on line t + 2
    memo = [{} for _ in range(lead)]  # the parsed heads (_chunk_columns)
    for chunk, chunk_lines in _chunks(fh, reader.line_num):
        lines = chunk
        if not isinstance(chunk[0], str):  # csv records, joined back into lines
            lines = None
            if set(map(len, chunk)) == {len(header)}:
                if blank is not None:  # a quoted id may hold a comma or a line end
                    for record in chunk:
                        record[blank] = ""
                lines = list(map(",".join, chunk))
        got = lines and _chunk_columns(lines, header, lead, memo)
        if got is None:
            raise _first_error(chunk, chunk_lines, header)
        chunk_ages, bitsets = got
        t = len(ages)
        if line_numbers is None and (
            chunk_lines[0] != t + 2 or chunk_lines[-1] != t + 1 + len(chunk_lines)
        ):
            line_numbers = array("q", range(2, t + 2))
        if line_numbers is not None:
            line_numbers.extend(chunk_lines)
        ages.extend(chunk_ages)
        r = t & 7  # rows already in the last byte
        size = (r + len(chunk_lines) + 7) >> 3
        for acc, bits in zip(merged, bitsets):
            low = acc.pop() if r else 0
            acc += (low | bits << r).to_bytes(size, "little")

    bitsets = iter([int.from_bytes(acc, "little") for acc in merged])
    covers = [next(bitsets) for _ in symptom_columns]
    # zip reads a column's values first, so it takes one bitset per value
    values = {name: dict(zip(by_code[1:], bitsets)) for name, by_code in CODED.items()}
    return PatientTable(symptom_columns, covers, ages, **values, lines=line_numbers)


def _chunks(fh: io.TextIOBase, line_num: int) -> Iterator[tuple[list, Sequence[int]]]:
    """The non-blank rows after the header, in chunks of about CHUNK_ROWS,
    each chunk with the CSV line each of its rows starts on.

    The first block is the line after the header. Each next block reads
    CHUNK_ROWS times the mean length of the last block's lines, finished
    by ``readline`` so that it ends at a line end (a CRLF that the read
    splits stays one line end). A chunk is
    a block's lines with the line ends (LF, CRLF or CR) stripped while
    they hold no quote and no line longer than csv's field limit; from
    the first block that does, csv.reader reads the rest of the input
    from that block's first line (a quoted field may span lines) and
    chunks are CHUNK_ROWS of its records. ``line_num`` is the number of
    lines read so far.
    """
    block = fh.readline()
    while block:
        text = block
        if "\r" in block:  # CRLF and a lone CR end a line, as LF does
            text = block.replace("\r\n", "\n").replace("\r", "\n")
        rows = text.split("\n")
        if not rows[-1]:
            rows.pop()
        limit = csv.field_size_limit()  # no line is longer than its block
        if '"' in text or (len(text) > limit and max(map(len, rows)) > limit):
            reader = csv.reader(chain(io.StringIO(block, newline=""), fh))
            records, starts = [], []
            start = line_num + 1  # the line the next record starts on
            try:
                for record in reader:
                    if record:
                        records.append(record)
                        starts.append(start)
                        if len(records) == CHUNK_ROWS:
                            yield records, starts
                            records, starts = [], []
                    start = line_num + reader.line_num + 1
            except csv.Error as exc:
                raise ParseError(f"row {line_num + reader.line_num}: {exc}") from None
            if records:
                yield records, starts
            return
        size = CHUNK_ROWS * len(block) // len(rows)
        starts = range(line_num + 1, line_num + 1 + len(rows))
        line_num += len(rows)
        if not all(rows):  # blank lines
            kept = [k for k, row in enumerate(rows) if row]
            rows, starts = [rows[k] for k in kept], [starts[k] for k in kept]
        if rows:
            yield rows, starts
        block = fh.read(size) + fh.readline()


def _chunk_columns(lines: list[str], header: list[str], lead: int, memo: list[dict]):
    """The ages and row bitsets of a chunk of lines (bit t for its row t),
    each symptom's, then each ``CODED`` value's (0 for an absent column),
    or None when a line is not one valid cell per ``header`` column. The
    lines are quote-free, or csv records joined back with commas and
    their ids blanked; both share ``memo``.

    Every line takes one cut, before its last 2S characters, S being the
    number of symptoms after its first ``lead`` cells (one past the last
    reserved column, or 1 when there is none): joined, the tails must be S
    pairs of a comma and a 0 or 1 each. Their flags read backwards, row
    n-1's last first, hold symptom j's as every S-th character from S-1-j,
    which is its bitset in binary. Where a chunk's heads repeat, only those
    not in ``memo`` are parsed (``memo[k]`` maps each head parsed so far to
    its cell k's value, and starts over rather than hold more than
    MEMO_HEADS heads) and each row takes its head's values from ``memo``.
    The heads parsed must hold ``lead`` cells each: joined with line ends,
    their commas and line ends must be ``lead`` - 1 commas per head,
    checked in one ``bytes.translate``. Joined with commas and split,
    column k is every ``lead``-th cell from k, and a symptom among them is
    a column of cells, each 0 or 1.
    """
    n = len(lines)
    tail = len(header) - lead
    heads = list(map(itemgetter(slice(None, -2 * tail or None)), lines))
    tails = "".join(map(itemgetter(slice(-2 * tail, None)), lines)) if tail > 0 else ""
    flags = tails[::-2]  # row n-1's last flag first
    if (len(tails) != 2 * tail * n or tails[::2] != "," * len(flags)
            or flags.encode(errors="surrogatepass").translate(None, b"01")):
        return None
    trailing = [int(flags[tail - 1 - j :: tail], 2) for j in range(tail)]
    new = heads  # the heads to parse
    if len(distinct := set(heads)) < n:
        new = list(distinct.difference(memo[0]))
        if len(memo[0]) + len(new) > MEMO_HEADS:
            for column in memo:
                column.clear()
            new = list(distinct)
    # UTF-8 puts no 0x2C or 0x0A inside a multi-byte character
    text = "\n".join([*new, ""]).encode(errors="surrogatepass")
    if text.translate(None, _NOT_COMMA_OR_LF) != (b"," * (lead - 1) + b"\n") * len(new):
        return None
    cells = ",".join(new).split(",") if new else []
    try:
        values = _values(header, [cells[k::lead] for k in range(lead)])
    except ValueError:  # a bad cell
        return None
    if new is not heads:
        for column, v in zip(memo, values):
            column.update(zip(new, v))
        values = [map(column.__getitem__, heads) for column in memo]
    named = dict(zip(header, values))
    leading = [flags_to_bits("".join(v)) for k, v in named.items() if k not in RESERVED_COLUMNS]
    bitsets = [*leading, *trailing]
    for name, by_code in CODED.items():
        codes = bytes(named.get(name, b""))  # once: a map from ``memo`` is spent by one read
        bitsets += [code_rows(codes, k) for k in range(1, len(by_code))]
    return named.get("age", repeat(None, n)), bitsets


def _values(header: list[str], columns: list[Sequence[str]]) -> list[Iterable]:
    """The values of the cells of each column, column k under ``header[k]``:
    an age's int or None, the code byte (``CODED``) of a cell of another
    reserved column, the cell itself of an ``id`` or a symptom, each
    distinct reserved cell parsed once. Raises ValueError at a bad cell.
    """
    values = []
    for name, cells in zip(header, columns):
        parse = _CELLS.get(name)
        if parse is None:
            if name != "id" and not _FLAG_CELLS.issuperset(cells):
                raise ValueError
            values.append(cells)
        elif name == "age":
            memo = {v: parse(v) for v in set(cells)}
            values.append(map(memo.__getitem__, cells))
        else:
            code = {v: k for k, v in enumerate(CODED[name])}
            memo = {v: code[parse(v)] for v in set(cells)}
            values.append(bytes(map(memo.__getitem__, cells)))
    return values


def _first_error(chunk: list, lines: Sequence[int], header: list[str]) -> RuleMineError:
    """The error of the chunk's first bad row, checking each row cell by cell."""
    for row, lineno in zip(chunk, lines):
        cells = row.split(",") if isinstance(row, str) else row
        if len(cells) != len(header):
            return ParseError(f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
        present = dict(zip(header, cells))
        for name, parse in _CELLS.items():
            try:
                parse(present.get(name, ""))
            except ValueError as exc:
                return ParseError(f"row {lineno}, column {name}: {exc}")
        for name, v in present.items():
            if name not in RESERVED_COLUMNS and v not in _FLAG_CELLS:
                return ParseError(f"row {lineno}, column {name}: expected 0 or 1, got {v!r}")
    return InternalError("a chunk failed a column check but none of its rows did")


def csv_text(rows: Iterable[Sequence]) -> str:
    """``rows`` as CSV text, each line ended by LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _first_missing(table: PatientTable, names: list[str], rows: int) -> tuple[int, str] | None:
    """The CSV line and column of the first of ``rows`` missing a value in
    one of the reserved columns ``names``, the earlier name on a tie; None
    when none is missing."""
    firsts = [((bits & -bits).bit_length() - 1, k) for k, name in enumerate(names)
              if (bits := table.missing(name) & rows)]
    if not firsts:
        return None
    t, k = min(firsts)
    return table.lines[t], names[k]


def value_rows(column: Sequence, key: Callable) -> dict:
    """The row bitset of each distinct ``key(value)`` over ``column``;
    ``key`` runs once per distinct value.

    Each row becomes a one-byte code (so at most 256 distinct results),
    and each result's bitset is ``code_rows`` of its code.
    """
    label = {v: key(v) for v in set(column)}
    codes = {result: k for k, result in enumerate(set(label.values()))}
    code_of = {v: codes[result] for v, result in label.items()}
    coded = bytes(map(code_of.__getitem__, column))
    return {result: code_rows(coded, k) for result, k in codes.items()}


def cohort_rows(table: PatientTable, sel: CohortSelector) -> int:
    """The row bitset of the rows ``sel`` selects; ``all`` is every row.
    A blank in the selector's column is an error in any row, kept or not."""
    every = (1 << len(table)) - 1
    if sel.kind == "all":
        return every
    name = "age" if sel.kind == "age_range" else "outcome"
    if missing := _first_missing(table, [name], every):
        line, _ = missing
        raise SchemaError(f"row {line}: {sel.kind} cohort filter needs {name} but {name} missing")
    if name == "outcome":
        return table.outcome[sel.kind]  # the other kinds are outcome values
    return value_rows(table.age, lambda a: sel.lo <= a < sel.hi).get(True, 0)


def filter_cohort(table: PatientTable, sel: CohortSelector) -> PatientTable:
    """The table of the rows ``sel`` selects, renumbered in order; ``all``
    returns ``table`` itself. The CLI keeps the row set ``cohort_rows``."""
    if sel.kind == "all":
        return table
    keep = cohort_rows(table, sel)
    n = len(table)
    compact = row_compactor(keep, n)
    mask = row_codes([keep], n)
    return PatientTable(
        list(table.symptom_columns),
        list(map(compact, table.covers)),
        list(compress(table.age, mask)),
        *({v: compact(bits) for v, bits in getattr(table, name).items()} for name in CODED),
        lines=array("q", compress(table.lines, mask)),
    )


def build_catalog(table: PatientTable, cfg: DerivationConfig) -> ItemCatalog:
    """Catalog with symptom columns in CSV order followed by derived items."""
    return ItemCatalog(table.symptom_columns + cfg.derived_names())


def derive_items(
    table: PatientTable, cfg: DerivationConfig, catalog: ItemCatalog, cohort: int | None = None
) -> TransactionSet:
    """One transaction per patient of ``cohort`` (a row bitset, every row
    by default, whose rows alone must hold the enabled columns' values):
    flagged symptoms plus derived items, no row renumbered.

    When enabled, each transaction gets exactly one age-bucket item, one
    sex item, one outcome item, and one lab item (the latter only for rows
    that carry a lab result). Symptom covers pass through unchanged; each
    derived item's cover is built from its reserved column.
    """
    cohort = (1 << len(table)) - 1 if cohort is None else cohort
    needed = [name for name in cfg.columns() if name != "lab_result"]
    if missing := _first_missing(table, needed, cohort):
        line, name = missing
        raise SchemaError(f"row {line}: {name} derivation enabled but {name} missing")

    covers = dict.fromkeys(range(len(catalog)), 0)
    for name, bits in zip(table.symptom_columns, table.covers):
        covers[catalog.id_of(name)] = bits
    for column in cfg.columns():
        rows = value_rows(table.age, age_bucket) if column == "age" else getattr(table, column)
        for value, item in _ITEMS[column].items():
            covers[catalog.id_of(item)] = rows.get(value, 0)
    return TransactionSet(len(table), covers).restrict(cohort)


def drop_sparse_patients(
    ts: TransactionSet, clinical_items: Itemset, min_count: int = 2
) -> TransactionSet:
    """Keep transactions containing at least min_count clinical items.

    Derived demographic/outcome items never count toward the threshold;
    only ids listed in ``clinical_items`` do. Rows are counted bit-sliced,
    one cover at a time: O(len(clinical_items) * min_count) bitset ops.
    The kept rows are a restriction of ``ts``: no row is renumbered.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    # no row holds more than len(clinical_items) of them
    k = min(min_count, len(clinical_items) + 1)
    # at_least[j]: rows holding at least j of the clinical covers seen so far
    at_least = [ts.rows] + [0] * k
    for i in clinical_items:
        bits = ts.cover_bits(i)
        for j in range(k, 0, -1):
            at_least[j] |= at_least[j - 1] & bits
    return ts.restrict(at_least[k])
