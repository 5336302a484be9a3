"""Columnar ingest against a row-wise reference.

The ``rowwise_*`` functions restate, one patient at a time, what parsing,
cohort filtering, item derivation and the sparse-patient drop mean. The
package does the same work on whole columns (row bitsets and per-row
lists); these properties require both to agree on every value and on
every error message.
"""

import csv
import io
import re
from contextlib import contextmanager
from functools import reduce
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rulemine import ingest, synth
from rulemine.apriori import MiningConfig, mine_frequent
from rulemine.core import TransactionSet, canonical_itemset
from rulemine.errors import ParseError, RuleMineError, SchemaError
from rulemine.features import item_frequencies
from rulemine.ingest import (
    CohortSelector,
    DerivationConfig,
    PatientRecord,
    age_bucket,
    build_catalog,
    cohort_rows,
    derive_items,
    drop_sparse_patients,
    filter_cohort,
    parse_patient_csv,
)
from rulemine.rules import generate_rules
from rulemine.synth import CohortSpec, generate_cohort, patient_csv_blocks, serialize_patient_csv

from conftest import cover_of

RESERVED = ("id", "age", "sex", "outcome", "lab_result")
CHOICES = {"sex": ("M", "F"), "outcome": ("recovered", "deceased"), "lab_result": ("pos", "neg")}

# ---------------------------------------------------------------- reference


def rowwise_parse(text):
    """(symptom columns, [(CSV line, PatientRecord)]), or ParseError; a
    row's CSV line is the one it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    symptoms = [c for c in header if c not in RESERVED]
    rows = []
    start = reader.line_num + 1
    for cells in reader:
        lineno, start = start, reader.line_num + 1
        if not cells:
            continue
        if len(cells) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
        cell = dict(zip(header, cells))
        age = cell.get("age") or None
        if age is not None:
            if not re.fullmatch("-?[0-9]+", age):
                raise ParseError(f"row {lineno}, column age: not an integer: {age!r}")
            age = int(age)
            if age < 0:
                raise ParseError(f"row {lineno}, column age: negative age {age}")
        values = {}
        for name, (a, b) in CHOICES.items():
            values[name] = cell.get(name) or None
            if values[name] not in (None, a, b):
                raise ParseError(
                    f"row {lineno}, column {name}: expected {a} or {b}, got {values[name]!r}"
                )
        for name in symptoms:
            if cell[name] not in ("0", "1"):
                raise ParseError(f"row {lineno}, column {name}: expected 0 or 1, got {cell[name]!r}")
        flags = {name: int(cell[name]) for name in symptoms}
        rows.append((lineno, PatientRecord(age, *values.values(), flags)))
    return symptoms, rows


def rowwise_filter(rows, sel):
    def keep(lineno, r):
        if sel.kind == "all":
            return True
        if sel.kind in ("deceased", "recovered"):
            if r.outcome is None:
                raise SchemaError(
                    f"row {lineno}: {sel.kind} cohort filter needs outcome but outcome missing"
                )
            return r.outcome == sel.kind
        if r.age is None:
            raise SchemaError(f"row {lineno}: age_range cohort filter needs age but age missing")
        return sel.lo <= r.age < sel.hi

    return [(lineno, r) for lineno, r in rows if keep(lineno, r)]


def rowwise_derive(rows, cfg, catalog):
    """One item set per row, or SchemaError naming the first bad row's CSV line."""
    out = []
    for lineno, r in rows:
        items = {catalog.id_of(name) for name, v in r.symptoms.items() if v}
        derived = []
        for on, field, name in (
            (cfg.age_buckets_enabled, r.age, "age"),
            (cfg.include_sex, r.sex, "sex"),
            (cfg.include_outcome, r.outcome, "outcome"),
        ):
            if on and field is None:
                raise SchemaError(f"row {lineno}: {name} derivation enabled but {name} missing")
        if cfg.age_buckets_enabled:
            derived.append(age_bucket(r.age))
        if cfg.include_sex:
            derived.append("Male" if r.sex == "M" else "Female")
        if cfg.include_outcome:
            derived.append("Death" if r.outcome == "deceased" else "Recovery")
        if cfg.include_lab and r.lab_result is not None:
            derived.append("Lab_Res_Pos" if r.lab_result == "pos" else "Lab_Res_Neg")
        out.append(frozenset(items | {catalog.id_of(name) for name in derived}))
    return out


def rowwise_serialize(table):
    """serialize_patient_csv restated: csv.writer over the row view, with
    the reserved columns that hold a value and every symptom column."""
    rows = table.rows
    reserved = [name for name in RESERVED[1:] if any(getattr(r, name) is not None for r in rows)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(reserved + table.symptom_columns)
    if reserved or table.symptom_columns:
        for r in rows:
            cells = [getattr(r, name) for name in reserved]
            writer.writerow(["" if v is None else v for v in cells]
                            + [r.symptoms[c] for c in table.symptom_columns])
    return buf.getvalue()


def outcome_of(call):
    """A call's result, or its error's class name and message."""
    try:
        return call()
    except RuleMineError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------- strategies

VALID = {
    # "a\r\nb" is quoted under every line end, so its row spans two lines
    "id": st.sampled_from(["", "p1", "x,y", "a\r\nb"]),
    "age": st.sampled_from(["", "0", "19", "20", "39", "40", "59", "60", "95", "007"]),
    **{name: st.sampled_from(("", a, b)) for name, (a, b) in CHOICES.items()},
}
BAD = {
    "age": st.sampled_from(["-3", "x", "4.5", "-0", "5_0", "+5", " 5", "\u0665"]),
    **{name: st.sampled_from([a.lower() + "?", b.upper(), " "]) for name, (a, b) in CHOICES.items()},
}


@st.composite
def patient_csv(draw, bad_cells=True):
    """CSV text: some reserved columns, some symptoms, maybe blank lines,
    CRLF or CR line ends, header-only, wrong cell counts and bad cells.
    The header either mixes the columns or leads with the reserved ones,
    as serialize_patient_csv writes it."""
    reserved = draw(st.lists(st.sampled_from(RESERVED), unique=True))
    symptoms = [f"s{j}" for j in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        header = draw(st.permutations(reserved)) + draw(st.permutations(symptoms))
    else:
        header = draw(st.permutations(reserved + symptoms))
    gaps = {c for c in reserved if draw(st.booleans())}  # the columns with empty cells
    cells = [
        VALID[c] if c in gaps else VALID[c].filter(bool) if c in VALID else st.sampled_from("01")
        for c in header
    ]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])  # blank line
            continue
        row = [draw(cell) for cell in cells]
        if bad_cells and header and draw(st.integers(0, 14)) == 0:
            k = draw(st.integers(0, len(header) - 1))
            row[k] = draw(BAD.get(header[k], st.sampled_from(["2", "", " 1", "01"])))
        if bad_cells and draw(st.integers(0, 29)) == 0:
            row = row + ["1"] if draw(st.booleans()) else row[:-1]
        rows.append(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows([header, *rows])
    return buf.getvalue()


SELECTORS = st.one_of(
    st.sampled_from([CohortSelector("all"), CohortSelector("deceased"), CohortSelector("recovered")]),
    st.tuples(st.integers(0, 99), st.integers(1, 100))
    .filter(lambda lh: lh[0] < lh[1])
    .map(lambda lh: CohortSelector("age_range", lo=lh[0], hi=lh[1])),
)
MANY_AGES = "age,f\n" + "".join(f"{a},{a % 2}\n" for a in range(600))
HUGE_AGE = f"age,f\n5,1\n{2**70},0\n150,1\n"
DERIVATIONS = st.builds(DerivationConfig, st.booleans(), st.booleans(), st.booleans(), st.booleans())


def parsed(table):
    return table.symptom_columns, list(zip(table.lines, table.rows))


# ---------------------------------------------------------------- properties


@given(patient_csv(), st.sampled_from([1, 3, 4096]), st.booleans())
@example("age,fever\n", 4096, True)  # header only
@example("fever\r\n\r\n1\r\n\r\n", 1, False)  # CRLF and blank lines
@example("f,outcome,sex\n1,recovered,M\n2,dead,X\n", 4096, False)  # sex is checked first
@example('age,f,g\n5,"1",0\n6,0,1\n', 4096, False)  # a quoted symptom cell
@example('id,age,f\np1,5,1\n"x,y",6,0\n7,7,1\n', 1, True)  # a quote only in the second chunk
@example("age,sex\n5,M\n\n6,F\n", 4096, False)  # no symptom columns
@example("age,sex\n5,M,1\n", 4096, False)  # no symptom columns, one cell too many
@example("age,f\n5,1\r6,0\n7,1\n", 4096, False)  # a lone CR inside a line of a str source
@example("age,f\n5,1\n6,2\n", 1, False)  # a bad cell in the second chunk
@example("age,f,g\n5,011\n", 4096, False)  # a short row as long as a full one
@example("age,f,g\n5,0,1,0\n6,1\n", 4096, False)  # a long row, then a short one
@example('id,age,f\n"a\nb",5,1\nc,x,0\n', 4096, False)  # a bad cell after a row on lines 2-3
@example('"a\nb",f\n1,0\n2,1\n', 4096, False)  # a bad cell after a header on lines 1-2
@example("f,age,g,sex,h\n1,5,0,M,1\n0,6,1,F,2\n", 4096, False)  # a bad symptom after the reserved
@example("f,age,g\n1,5,0\n2,6,1\n", 4096, False)  # a bad symptom before a reserved column
# in one chunk (the first holds line 2 alone), a head with a comma too many and a later one
# with one too few: the total count is right; in the second, each shifted cell is still valid
@example("age,sex,f\n4,F,0\n5,M,,1\n6,0\n", 4096, False)
@example("id,age,f\nb,4,0\na,5,x,1\n7,0\n", 4096, False)
@example("id,age,f\nx,6,0\n\u00e9\u20ac\U0001f600,5,1\ny,7,1\n", 4096, False)  # a non-ASCII id
@example("age,f\n5,\udc80\n", 4096, False)  # a lone surrogate in a symptom cell of a str source
@example("age,f\n5,1\n5_0,0\n", 4096, False)  # an age cell int() reads as 50
# csv records, joined back into lines, share the memo of parsed heads: at CHUNK_ROWS 1 the
# quote-free lines 3-4 put "5" there before the quoted line 6, at 2 records whose heads repeat do
@example('age,f\n5,1\n5,1\n5,0\n5,1\n"5",1\n6,0\n', 1, False)
@example('age,f\n5,1\n5,0\n"5",1\n6,0\n', 2, False)
@example('id,age,f\np1,5,1\n"x,\ny",6,2\n', 4096, False)  # a bad cell after an id with "," and LF
@example('age,f,g\n5,"1,0",1\n', 4096, False)  # a quoted symptom cell holding a comma
@example('age,f,g\n5,0,1\n5,"1,0"\n', 4096, False)  # a short record that joins to 3 cells
# heads that repeat across chunks: the whole line when the reserved column is last, the
# first symptom when there is no reserved column
@example("f,g,age\n1,0,5\n1,0,5\n0,1,5\n1,0,5\n0,1,5\n1,0,5\n", 2, False)
@example("f,g\n1,0\n1,1\n0,1\n1,0\n0,0\n1,1\n", 2, False)
def test_parse_matches_rowwise(text, chunk_rows, stream):
    source = io.StringIO(text, newline="") if stream else text
    with patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        got = outcome_of(lambda: parsed(parse_patient_csv(source)))
    assert got == outcome_of(lambda: rowwise_parse(text))


@given(patient_csv(bad_cells=False), SELECTORS)
@example("age,outcome,f\n", CohortSelector("deceased"))  # 0 rows
@example("outcome,f\nrecovered,1\nrecovered,0\n", CohortSelector("deceased"))  # every row dropped
@example("age,f\n30,1\n40,0\n", CohortSelector("age_range", lo=0, hi=100))  # no row dropped
@example("outcome,f\ndeceased,1\n", CohortSelector("deceased"))  # one row
@example("age,outcome,f\n,deceased,1\n,recovered,0\n", CohortSelector("deceased"))  # age all None
@example("age,f\n,1\n,0\n", CohortSelector("age_range", lo=0, hi=50))  # age all None
@example("outcome,f\nrecovered,1\n\n,0\n", CohortSelector("deceased"))  # one blank outcome, line 4
@example("age,f\n30,1\n,0\n", CohortSelector("age_range", lo=0, hi=50))  # one blank age, line 3
def test_filter_cohort_matches_rowwise(text, sel):
    table = parse_patient_csv(text)
    got = outcome_of(lambda: parsed(filter_cohort(table, sel))[1])
    assert got == outcome_of(lambda: rowwise_filter(rowwise_parse(text)[1], sel))


@given(patient_csv(bad_cells=False), SELECTORS, DERIVATIONS)
# the first row missing a value wins, whatever its column
@example("age,sex,f\n30,M,1\n40,,0\n,F,1\n", CohortSelector("all"), DerivationConfig(True, True))
@example("age,sex,outcome,f\n", CohortSelector("all"), DerivationConfig(True, True, True, True))
@example(  # every row dropped
    "age,sex,outcome,f\n30,M,recovered,1\n", CohortSelector("deceased"), DerivationConfig(True, True, True)
)
@example(  # no row dropped
    "age,outcome,f\n30,deceased,1\n70,deceased,0\n", CohortSelector("age_range", lo=0, hi=100),
    DerivationConfig(True, False, True),
)
@example(  # one row
    "age,sex,outcome,lab_result,f\n61,F,deceased,pos,1\n", CohortSelector("all"),
    DerivationConfig(True, True, True, True),
)
@example("lab_result,f\n,1\n,0\n", CohortSelector("all"), DerivationConfig(include_lab=True))
# more than 256 distinct ages in one chunk, and an age far past any byte or machine word
@example(MANY_AGES, CohortSelector("age_range", lo=100, hi=300), DerivationConfig(True))
@example(MANY_AGES, CohortSelector("all"), DerivationConfig(True))
@example(HUGE_AGE, CohortSelector("age_range", lo=100, hi=300), DerivationConfig(True))
@example(HUGE_AGE, CohortSelector("all"), DerivationConfig(True))
@example("sex,f\n,1\n,0\n", CohortSelector("all"), DerivationConfig(include_sex=True))
# a blank age outside the cohort: no error, and no age bucket for that row
@example("age,outcome,f\n30,deceased,1\n,recovered,0\n50,deceased,1\n", CohortSelector("deceased"),
         DerivationConfig(True))
def test_derive_items_matches_rowwise(text, sel, cfg):
    """Items derived over a renumbered cohort table, and over the whole
    table restricted to the cohort's row set, against the reference."""
    table = parse_patient_csv(text)
    rows = rowwise_parse(text)[1]
    if isinstance(outcome_of(lambda: rowwise_filter(rows, sel)), tuple):
        return  # the selector needs a column this table lacks
    catalog = build_catalog(table, cfg)
    expected = outcome_of(lambda: rowwise_derive(rowwise_filter(rows, sel), cfg, catalog))
    cohort = filter_cohort(table, sel)
    assert outcome_of(lambda: derive_items(cohort, cfg, catalog).transactions()) == expected
    kept = cohort_rows(table, sel)
    assert outcome_of(lambda: derive_items(table, cfg, catalog, kept).transactions()) == expected


ITEM_ROWS = st.integers(1, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.sets(st.integers(0, m - 1)), max_size=40))
)


@given(ITEM_ROWS)
@example((3, []))  # 0 rows
def test_from_transactions_and_back(case):
    m, rows = case
    ts = TransactionSet.from_transactions(rows, item_ids=range(m))
    assert ts.n_transactions == len(rows)
    for i in range(m):
        assert ts.cover_bits(i) == sum(1 << t for t, row in enumerate(rows) if i in row)
    assert ts.transactions() == [frozenset(row) for row in rows]


@st.composite
def sparse_case(draw):
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.sets(st.integers(0, m - 1)), max_size=40))
    clinical = canonical_itemset(draw(st.sets(st.integers(0, m - 1))))
    return m, rows, clinical, draw(st.integers(1, m + 2))


@given(sparse_case())
@example((3, [], (0, 1), 1))  # 0 rows
@example((3, [{0, 1}, {0, 1, 2}], (0, 1), 3))  # min_count > |clinical|: every row dropped
@example((2, [{0, 1}, {1}], (), 1))  # empty clinical_items
@example((2, [{0, 1}, {0, 1}], (0, 1), 2))  # no row dropped
@example((3, [{0, 2}], (0, 2), 1))  # one row
@example((3, [{0}, {0, 1}, {0}], (0, 1, 2), 1))  # item 2's cover is empty
def test_drop_sparse_matches_rowwise(case):
    m, rows, clinical, min_count = case
    ts = TransactionSet.from_transactions(rows, item_ids=range(m))
    kept = drop_sparse_patients(ts, clinical, min_count)
    expected = [frozenset(r) for r in rows if len(r & set(clinical)) >= min_count]
    assert kept.n_transactions == len(expected)
    assert kept.transactions() == expected


@st.composite
def restrict_case(draw):
    """Item rows, a keep bitset (bits past the last row included) and an item subset."""
    m, rows = draw(ITEM_ROWS)
    keep = draw(st.integers(0, (1 << len(rows) + 2) - 1))
    return m, rows, keep, sorted(draw(st.sets(st.integers(0, m - 1))))


@given(restrict_case(), st.sampled_from([0, 0.2, 0.5]))
@example((3, [], 0b1, [0, 1]), 0.2)  # 0 rows
@example((3, [{0, 1}, {1, 2}, {0, 2}], 0, [0, 1, 2]), 0.2)  # every row dropped
@example((3, [{0, 1}, {1, 2}, {0, 2}], 0b111, []), 0.2)  # no item kept
@example((3, [{0, 1}, {0, 1, 2}, {1}, {0, 2}], 0b1010, [0, 1, 2]), 0)  # zero counts
# the miner renumbers the rows when over a quarter of the width is dropped, not otherwise
@example((3, [{0, 1}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}], 0b10001, [0, 1, 2]), 0.2)
@example((3, [{0, 1}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}], 0b11101, [0, 1, 2]), 0.2)
def test_restrict_matches_the_kept_rows(case, min_support):
    m, rows, keep, items = case
    ts = TransactionSet.from_transactions(rows, item_ids=range(m))
    got = ts.restrict(keep, items)
    kept = [row & set(items) for t, row in enumerate(rows) if keep >> t & 1]
    ref = TransactionSet.from_transactions(kept, item_ids=items)
    assert got.rows == keep & ts.rows
    assert got.n_transactions == ref.n_transactions == len(kept)
    assert got.item_ids() == items
    assert got.transactions() == ref.transactions()
    for s in [(), *((i,) for i in items), tuple(items[:2]), tuple(items)]:
        assert cover_of(got, s) == cover_of(ref, s)
    assert outcome_of(lambda: item_frequencies(got)) == outcome_of(lambda: item_frequencies(ref))
    for target in [None, (items[-1],)] if items else [None]:
        cfg = MiningConfig(min_support=min_support, min_lift=0, target_consequent=target)

        def rules(t):
            fi = mine_frequent(t, cfg)
            return fi, generate_rules(fi, cfg)

        assert outcome_of(lambda: rules(got)) == outcome_of(lambda: rules(ref))


@given(sparse_case(), st.data())
def test_a_row_bitset_taken_before_the_drop_keeps_its_patients(case, data):
    m, rows, clinical, min_count = case
    ts = TransactionSet.from_transactions(rows, item_ids=range(m))
    marked = data.draw(st.integers(0, ts.rows))  # e.g. the deceased rows
    kept = drop_sparse_patients(ts, clinical, min_count)
    survivors = [t for t, r in enumerate(rows) if len(r & set(clinical)) >= min_count]
    assert (kept.rows & marked).bit_count() == sum(marked >> t & 1 for t in survivors)
    for i in range(m):
        assert (kept.cover_bits(i) & marked).bit_count() == sum(
            marked >> t & 1 for t in survivors if i in rows[t]
        )
    if kept.rows & marked:
        freq = item_frequencies(kept.restrict(marked))
        assert freq.n_transactions == (kept.rows & marked).bit_count()
        assert freq.counts == {i: (kept.cover_bits(i) & marked).bit_count() for i in range(m)}


HEADERS = {
    "reserved_first": ["age", "sex", "outcome", "f", "g"],  # as synth writes it
    "mixed": ["f", "age", "g", "sex", "h", "i"],
    "reserved_last": ["f", "g", "age", "sex", "outcome"],
}


# each header's LF case is named by the header alone, so its id matches earlier runs'
@pytest.mark.parametrize(
    "header, eol",
    [
        pytest.param(header, eol, id=name + suffix)
        for eol, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
        for name, header in HEADERS.items()
    ],
)
def test_quote_free_chunks_skip_csv_reader(header, eol):
    """Three quote-free chunks, under LF, CRLF or CR line ends: csv.reader
    tokenises the header only, and no chunk is checked row by row."""
    real_reader = csv.reader
    rows_read = []

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self._reader = real_reader(*args, **kwargs)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self._reader)
            rows_read.append(row)
            return row

        @property
        def line_num(self):
            return self._reader.line_num

    def cell(name, t):
        values = {"age": str(20 + t), "sex": "MF"[t % 2], "outcome": "recovered"}
        return values.get(name, str((t + ord(name[0])) // 2 % 2))

    text = ",".join(header) + eol + "".join(
        ",".join(cell(name, t) for name in header) + eol for t in range(9)
    )
    with (
        patch.object(ingest, "CHUNK_ROWS", 3),
        patch.object(ingest.csv, "reader", CountingReader),
        patch.object(ingest, "_first_error", wraps=ingest._first_error) as first_error,
    ):
        got = parsed(parse_patient_csv(text))
    assert rows_read == [header]
    assert first_error.call_count == 0
    assert got == rowwise_parse(text)


def assert_rows_partitioned(table):
    """Each bitset column's values, in catalog order, and its missing rows
    are disjoint and hold every row of the table."""
    every = (1 << len(table)) - 1
    for name, values in CHOICES.items():
        column = getattr(table, name)
        assert tuple(column) == values
        parts = [*column.values(), table.missing(name)]
        assert reduce(or_, parts) == every
        assert sum(bits.bit_count() for bits in parts) == len(table)


COHORT_SPECS = st.builds(
    CohortSpec,
    n=st.integers(0, 60),
    marginals=st.just({"a": 0.5}),
    mortality=st.floats(0, 1),
    male_fraction=st.floats(0, 1),
    seed=st.integers(0, 2**32),
)


@given(patient_csv(bad_cells=False), SELECTORS, COHORT_SPECS)
@example("age,sex,outcome,lab_result,f\n", CohortSelector("all"), CohortSpec(0, {}))  # 0 rows
@example("sex,f\nM,1\n,0\nF,1\n", CohortSelector("deceased"), CohortSpec(1, {}))  # no outcome
def test_reserved_bitsets_partition_the_rows(text, sel, spec):
    table = parse_patient_csv(text)
    tables = [table, generate_cohort(spec)]
    try:
        tables.append(filter_cohort(table, sel))
    except SchemaError:
        pass  # a blank cell in the selector's column
    for t in tables:
        assert_rows_partitioned(t)


@given(patient_csv(bad_cells=False), SELECTORS, COHORT_SPECS)
@example('age\n""\n5\n', CohortSelector("all"), CohortSpec(0, {}))  # a row of one empty field
@example("sex\n\"\"\nM\n", CohortSelector("all"), CohortSpec(0, {}))
@example("age,f\n,1\n,0\n", CohortSelector("all"), CohortSpec(3, {"a": 0.5}))  # age all empty
@example("age,outcome\n5,deceased\n6,recovered\n", CohortSelector("deceased"), CohortSpec(2, {}))
def test_serialize_matches_csv_writer(text, sel, spec):
    table = parse_patient_csv(text)
    tables = [table, generate_cohort(spec)]
    try:
        tables.append(filter_cohort(table, sel))
    except SchemaError:
        pass
    for t in tables:
        assert serialize_patient_csv(t) == rowwise_serialize(t)
        with patch.object(synth, "WRITE_ROWS", 8):  # blocks of 8 rows join to the same text
            blocks = list(patient_csv_blocks(t))
        rows = 0 if blocks[0] == "\n" else len(t)  # a table with no columns writes no rows
        assert len(blocks) == 1 + (rows + 7) // 8
        assert "".join(blocks) == rowwise_serialize(t)


@pytest.mark.parametrize("header", [
    ["id", "Fever", "age", "Cough", "sex"],
    ["Fever", "age", "id", "Cough", "sex"],
], ids=["id_first", "mixed"])
def test_id_columns_parse_to_the_table_without_them(header):
    cells = [{"Fever": str(t % 2), "age": str(t % 90) if t % 7 else "", "Cough": str(t // 2 % 2),
              "sex": "MF"[t % 2] if t % 5 else "", "id": f"p{t}"} for t in range(10)]

    def text(columns):
        return "".join(",".join(c[name] for name in columns) + "\n" for c in [dict(zip(columns, columns)), *cells])

    plain = parse_patient_csv(text([name for name in header if name != "id"]))
    with patch.object(ingest, "CHUNK_ROWS", 4):
        assert parse_patient_csv(text(header)) == plain
    assert parse_patient_csv(text(header)) == plain


# ---------------------------------------------------------------- parsed heads


def head_cell(name, t):
    """Row t's cell of column ``name``: its age, sex, outcome, f and g repeat
    every 24 rows, its id and h do not."""
    return {
        "id": f"p{t}", "age": str(t % 24 // 4 * 13), "sex": "MF"[t % 2],
        "outcome": ("recovered", "deceased")[t // 2 % 2],
        "f": str(int(t % 3 == 0)), "g": str(int(t % 8 < 3)), "h": str(t * t % 7 % 2),
    }[name]


def cohort_text(header, n, cell=head_cell):
    return "".join(",".join(row) + "\n" for row in [header, *(
        [cell(name, t) for name in header] for t in range(n))])


def as_records(text):
    """``text`` with its first data cell quoted, so that csv.reader reads
    every row, and no chunk is a quote-free one."""
    head, rest = text.split("\n", 1)
    first, _, others = rest.partition(",")
    return f'{head}\n"{first}",{others}'


@contextmanager
def memo_sizes():
    """Within it, each chunk parsed appends the number of parsed heads held
    before it to the list it gives."""
    real, sizes = ingest._chunk_columns, []

    def chunk_columns(chunk, header, lead, memo):
        sizes.append(len(memo[0]))
        return real(chunk, header, lead, memo)

    with patch.object(ingest, "_chunk_columns", chunk_columns):
        yield sizes


@pytest.mark.parametrize("header", [
    ["age", "sex", "outcome", "f", "h"],
    ["id", "age", "sex", "outcome", "f", "h"],
    ["f", "g", "age", "sex", "outcome", "h"],
], ids=["reserved_first", "id_first", "symptoms_first"])
def test_heads_parse_to_the_table_of_csv_records(header):
    text = cohort_text(header, 300)
    with patch.object(ingest, "CHUNK_ROWS", 32):
        with memo_sizes() as sizes:
            table = parse_patient_csv(text)
        assert table == parse_patient_csv(as_records(text))
    assert parsed(table) == rowwise_parse(text)
    if header[0] == "id":  # every head is distinct, so no chunk fills the memo
        assert set(sizes) == {0}
    else:  # the memo holds the 24 distinct heads
        assert max(sizes) == 24


def test_csv_records_share_the_memo_with_their_ids_blanked():
    text = as_records(cohort_text(["id", "age", "sex", "outcome", "f", "h"], 300))
    with patch.object(ingest, "CHUNK_ROWS", 32), memo_sizes() as sizes:
        table = parse_patient_csv(text)
    assert parsed(table) == rowwise_parse(text)
    assert max(sizes) == 24  # with the ids blanked, the heads repeat every 24 rows


@pytest.mark.parametrize("copy", ["quote_all", "quoted_id"])
def test_a_quoted_copy_of_a_synth_cohort_parses_to_the_plain_table(copy):
    spec = CohortSpec(n=3000, marginals={f"s{j}": 0.1 + j / 10 for j in range(8)}, seed=11)
    plain = serialize_patient_csv(generate_cohort(spec))
    rows = list(csv.reader(io.StringIO(plain)))
    buf = io.StringIO()
    if copy == "quote_all":
        csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    else:  # a quoted id holding a comma, a quote and a line end before every row
        ids = [f'p{t}, "x"\nz' for t in range(len(rows) - 1)]
        csv.writer(buf, lineterminator="\n").writerows(
            [["id", *rows[0]], *([i, *row] for i, row in zip(ids, rows[1:]))])
    assert parse_patient_csv(buf.getvalue()) == parse_patient_csv(plain)


def test_the_memo_starts_over_past_its_bound():
    def cell(name, t):  # a new age every 20 rows: 60 distinct heads, at most 12 in 32 rows
        return str(t // 20) if name == "age" else head_cell(name, t)

    text = cohort_text(["age", "sex", "outcome", "f", "h"], 300, cell)
    with patch.object(ingest, "CHUNK_ROWS", 32), patch.object(ingest, "MEMO_HEADS", 16):
        with memo_sizes() as sizes:
            table = parse_patient_csv(text)
        assert table == parse_patient_csv(as_records(text))
    assert parsed(table) == rowwise_parse(text)
    assert max(sizes) <= 16
    assert any(later < size for size, later in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("row, message", [
    ("4x,M,recovered,1,0", "row 251, column age: not an integer: '4x'"),
    ("13,m,recovered,1,0", "row 251, column sex: expected M or F, got 'm'"),
    ("13,M,dead,1,0", "row 251, column outcome: expected recovered or deceased, got 'dead'"),
    ("13,recovered,1,0", "row 251: expected 5 cells, got 4"),
    ("13,M,M,recovered,1,0", "row 251: expected 5 cells, got 6"),
], ids=["age", "sex", "outcome", "short", "long"])
def test_a_bad_head_first_seen_in_a_late_chunk_names_its_row(row, message):
    lines = cohort_text(["age", "sex", "outcome", "f", "h"], 300).splitlines(keepends=True)
    lines[250] = row + "\n"  # line 251
    text = "".join(lines)
    with patch.object(ingest, "CHUNK_ROWS", 32), memo_sizes() as sizes:
        got = outcome_of(lambda: parse_patient_csv(text))
    assert got == ("ParseError", message) == outcome_of(lambda: rowwise_parse(text))
    assert sizes[-1] == 24  # the memo was warm when the bad head came


def test_rows_on_line_t_plus_2_keep_a_range_of_lines():
    text = "age,f\n" + "".join(f"{t % 90},{t % 2}\n" for t in range(3 * 4096 + 5))
    table = parse_patient_csv(text)
    assert table.lines == range(2, len(table) + 2) and isinstance(table.lines, range)


def test_derive_error_after_a_late_blank_line_names_its_csv_line():
    rows = [f"{t % 90},{'MF'[t % 2]},{t % 2}" for t in range(5000)]
    rows[4600] = "40,,1"  # row 4600 is on line 4603: one blank line comes before it
    rows.insert(4200, "")
    text = "age,sex,f\n" + "\n".join(rows) + "\n"
    table = parse_patient_csv(text)
    assert list(table.lines[4198:4201]) == [4200, 4201, 4203]
    cfg = DerivationConfig(include_sex=True)
    with pytest.raises(SchemaError) as exc:
        derive_items(table, cfg, build_catalog(table, cfg))
    assert str(exc.value) == "row 4603: sex derivation enabled but sex missing"


# ---------------------------------------------------------------- block reads


def sources(text):
    """``text`` as each kind of source the parser reads: the str itself, a
    StringIO and a file over UTF-8 bytes, the latter two with newline=""."""
    return [
        text,
        io.StringIO(text, newline=""),
        io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=""),
    ]


def first_read_end(text, chunk_rows):
    """Where the first block's ``read`` stops: after the header line, the
    line after it, and chunk_rows times that line's length."""
    lines = io.StringIO(text, newline="").readlines()
    return len(lines[0]) + (1 + chunk_rows) * len(lines[1])


@pytest.mark.parametrize("source", range(3), ids=["str", "stringio", "file"])
def test_crlf_split_by_a_block_read_is_one_line_end(source):
    rows = ["5,1", "5,1", "50,1"] + [f"{t},{t % 2}" for t in range(10, 19)]
    rows[8] = "16,2"  # on line 10
    text = "age,f\r\n" + "".join(row + "\r\n" for row in rows)
    end = first_read_end(text, 2)
    assert text[end - 1 : end + 1] == "\r\n"  # the read stops between the CR and the LF
    with patch.object(ingest, "CHUNK_ROWS", 2):
        with pytest.raises(ParseError, match="^row 10, column f: expected 0 or 1, got '2'$"):
            parse_patient_csv(sources(text)[source])
        good = text.replace("16,2", "16,0")
        table = parse_patient_csv(sources(good)[source])
    assert isinstance(table.lines, range) and parsed(table) == rowwise_parse(good)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_blank_lines_at_block_boundaries_keep_their_line_numbers(eol):
    rows = [f"{t % 90},{t % 2}" for t in range(14)]
    end = first_read_end("age,f\n" + "\n".join(rows), 2)
    # the block's read ends on a line end, so a blank line there ends the
    # block (read by readline) and one line later starts the next block
    assert ("age,f\n" + "\n".join(rows) + "\n")[end - 1] == "\n"
    for k in range(len(rows) + 1):
        lines = [*rows[:k], "", *rows[k:]]
        lines[-2] = "1,x"  # a bad cell after the blank line
        text = "age,f" + eol + eol.join(lines) + eol
        for source in sources(text):
            with patch.object(ingest, "CHUNK_ROWS", 2):
                got = outcome_of(lambda: parsed(parse_patient_csv(source)))
            assert got == outcome_of(lambda: rowwise_parse(text))
            assert got[1].startswith(f"row {len(lines)}, column f:")


@pytest.mark.parametrize("chunk_rows", [2, 4])
def test_quoted_record_in_the_middle_of_a_block(chunk_rows):
    rows = ["p1,5,1", "p2,6,0", '"p\n3",7,1', "p4,8,0", "p5,9,1", "p6,10,0", "p7,11,1"]
    text = "id,age,f\n" + "\n".join(rows) + "\n"
    assert text.index('"') < first_read_end(text, chunk_rows)  # mid-block, after two rows
    for source in sources(text):
        with patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            table = parse_patient_csv(source)
        assert parsed(table) == rowwise_parse(text)
        assert list(table.lines) == [2, 3, 4, 6, 7, 8, 9]
    bad = text.replace("p6,10,0", "p6,-1,0")
    for source in sources(bad):
        with patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            with pytest.raises(ParseError, match="^row 8, column age: negative age -1$"):
                parse_patient_csv(source)


def test_blocks_are_sized_by_the_lines_read_not_the_first_line():
    # a blank first line must not shrink every later block to a few rows
    text = "age,f\n\n" + "".join(f"{t % 90},{t % 2}\n" for t in range(40))
    with (
        patch.object(ingest, "CHUNK_ROWS", 4),
        patch.object(ingest, "_chunk_columns", wraps=ingest._chunk_columns) as chunk_columns,
    ):
        assert parsed(parse_patient_csv(text)) == rowwise_parse(text)
    assert chunk_columns.call_count <= 40 // 4 + 2
