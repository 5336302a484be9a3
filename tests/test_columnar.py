"""Columnar ingest against a row-wise reference.

The ``rowwise_*`` functions restate, one patient at a time, what parsing,
cohort filtering, item derivation and the sparse-patient drop mean. The
package does the same work on whole columns (row bitsets and per-row
lists); these properties require both to agree on every value and on
every error message.
"""

import csv
import io
from functools import reduce
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rulemine import ingest
from rulemine.core import TransactionSet, canonical_itemset
from rulemine.errors import ParseError, RuleMineError, SchemaError
from rulemine.ingest import (
    CohortSelector,
    DerivationConfig,
    PatientRecord,
    age_bucket,
    build_catalog,
    derive_items,
    drop_sparse_patients,
    filter_cohort,
    parse_patient_csv,
    serialize_patient_csv,
)
from rulemine.synth import CohortSpec, generate_cohort

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
            try:
                age = int(age)
            except ValueError:
                raise ParseError(f"row {lineno}, column age: not an integer: {age!r}") from None
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
    "age": st.sampled_from(["-3", "x", "4.5", "-0"]),
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
def test_derive_items_matches_rowwise(text, sel, cfg):
    table = parse_patient_csv(text)
    rows = rowwise_parse(text)[1]
    if isinstance(outcome_of(lambda: rowwise_filter(rows, sel)), tuple):
        return  # the selector needs a column this table lacks
    catalog = build_catalog(table, cfg)
    cohort = filter_cohort(table, sel)
    got = outcome_of(lambda: derive_items(cohort, cfg, catalog).transactions())
    assert got == outcome_of(lambda: rowwise_derive(rowwise_filter(rows, sel), cfg, catalog))


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
