import csv
import io

import pytest

from rulemine.core import canonical_itemset
from rulemine.errors import ConfigError, ParseError, SchemaError
from rulemine.ingest import (
    CohortSelector,
    DerivationConfig,
    PatientRecord,
    PatientTable,
    age_bucket,
    build_catalog,
    derive_items,
    drop_sparse_patients,
    filter_cohort,
    parse_patient_csv,
)
from rulemine.synth import serialize_patient_csv

from conftest import cover_of

CSV = "age,sex,outcome,fever,cough\n57,M,recovered,1,0\n"


class TestParse:
    def test_basic_row(self):
        table = parse_patient_csv(CSV)
        assert table.symptom_columns == ["fever", "cough"]
        (row,) = table.rows
        assert row.age == 57 and row.sex == "M" and row.outcome == "recovered"
        assert row.symptoms == {"fever": 1, "cough": 0}

    def test_bad_symptom_cell_names_location(self):
        with pytest.raises(ParseError, match=r"row 2.*cough"):
            parse_patient_csv("age,sex,outcome,fever,cough\n57,M,recovered,1,2\n")

    def test_duplicate_header(self):
        with pytest.raises(SchemaError, match="fever"):
            parse_patient_csv("fever,fever\n1,0\n")

    def test_empty_file(self):
        with pytest.raises(SchemaError):
            parse_patient_csv("")

    def test_oversized_cell_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"row 3: field larger than field limit"):
            parse_patient_csv("fever\n1\n" + "1" * 200_000 + "\n")

    def test_oversized_header_field_is_a_parse_error(self):
        limit = csv.field_size_limit()
        with pytest.raises(ParseError) as exc:
            parse_patient_csv("a" * (limit + 1) + ",fever\n1,0\n")
        assert str(exc.value) == f"row 1: field larger than field limit ({limit})"

    @pytest.mark.parametrize("chunk", ["fast", "csv"])
    def test_negative_age_names_the_row(self, chunk):
        # a quote hands the chunk to csv.reader; either way the message is the same
        text = "id,age,fever\np1,5,1\np2,-3,0\n"
        if chunk == "csv":
            text = text.replace("p1", '"p1"')
        with pytest.raises(ParseError) as exc:
            parse_patient_csv(text)
        assert str(exc.value) == "row 3, column age: negative age -3"

    @pytest.mark.parametrize("chunk", ["fast", "csv"])
    @pytest.mark.parametrize(
        "cell", ["5_0", "\u0665", " 5", "+5", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_age_is_an_optional_minus_then_ascii_digits(self, chunk, cell):
        # int() would read each of the first four cells as a number, and refuses the last
        text = f"id,age,fever\np1,5,1\np2,{cell},0\n"
        if chunk == "csv":
            text = text.replace("p1", '"p1"')
        with pytest.raises(ParseError) as exc:
            parse_patient_csv(text)
        assert str(exc.value) == f"row 3, column age: not an integer: {cell!r}"

    def test_crlf_accepted(self):
        table = parse_patient_csv(CSV.replace("\n", "\r\n"))
        assert len(table) == 1

    def test_cr_only_text_parses_like_a_stream(self):
        text = "age,fever\r5,1\r6,0\r"
        table = parse_patient_csv(text)
        assert table == parse_patient_csv(io.StringIO(text, newline=""))
        assert table.age == [5, 6] and list(table.lines) == [2, 3]

    def test_missing_demographics_tolerated(self):
        table = parse_patient_csv("fever,cough\n1,0\n")
        assert table.rows[0].age is None

    def test_roundtrip(self):
        text = (
            "age,sex,outcome,lab_result,fever,cough\n"
            "57,M,recovered,pos,1,0\n"
            "30,F,deceased,neg,0,1\n"
        )
        table = parse_patient_csv(text)
        again = parse_patient_csv(serialize_patient_csv(table))
        assert again == table


class TestAgeBuckets:
    @pytest.mark.parametrize(
        "age,bucket",
        [(0, "<20"), (19, "<20"), (20, "20-40"), (39, "20-40"), (40, "40-60"),
         (57, "40-60"), (59, "40-60"), (60, ">60"), (95, ">60"), (None, None)],
    )
    def test_half_open_boundaries(self, age, bucket):
        assert age_bucket(age) == bucket


class TestFilterCohort:
    def _table(self):
        lines = ["age,sex,outcome,fever"]
        for k in range(10):
            outcome = "deceased" if k < 4 else "recovered"
            lines.append(f"{k * 10},M,{outcome},1")
        return parse_patient_csv("\n".join(lines) + "\n")

    def test_all_is_identity(self):
        t = self._table()
        assert filter_cohort(t, CohortSelector("all")) == t

    def test_deceased_recovered_partition(self):
        t = self._table()
        dead = filter_cohort(t, CohortSelector("deceased"))
        alive = filter_cohort(t, CohortSelector("recovered"))
        assert len(dead) == 4 and len(alive) == 6
        assert len(dead) + len(alive) == len(t)

    def test_age_range_half_open(self):
        t = self._table()
        picked = filter_cohort(t, CohortSelector("age_range", lo=20, hi=40))
        assert [r.age for r in picked.rows] == [20, 30]

    def test_bad_age_range(self):
        with pytest.raises(ConfigError):
            CohortSelector("age_range", lo=40, hi=20)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown cohort selector: 'bogus'"):
            CohortSelector("bogus")


class TestRowView:
    def test_sequence_of_records(self):
        table = parse_patient_csv("age,fever\n5,1\n6,0\n7,1\n")
        rows = table.rows
        assert len(rows) == 3
        assert rows[-1] == PatientRecord(7, None, None, None, {"fever": 1})
        assert rows[1:] == [rows[1], rows[2]] and rows[::-2] == [rows[2], rows[0]]
        assert [r.age for r in rows] == [5, 6, 7]

    def test_empty_table_view_is_falsy(self):
        assert not parse_patient_csv("age,fever\n").rows


class TestDeriveItems:
    CFG = DerivationConfig(True, True, True, True)

    def _mk(self, text):
        table = parse_patient_csv(text)
        catalog = build_catalog(table, self.CFG)
        return table, catalog, derive_items(table, self.CFG, catalog)

    def test_age_57_gets_40_60(self):
        _, catalog, ts = self._mk(CSV)
        assert cover_of(ts, (catalog.id_of("40-60"),)) == {0}
        assert cover_of(ts, (catalog.id_of("20-40"),)) == set()

    def test_age_20_upper_bucket(self):
        _, catalog, ts = self._mk("age,sex,outcome,fever\n20,F,recovered,0\n")
        assert cover_of(ts, (catalog.id_of("20-40"),)) == {0}

    def test_outcome_exclusive(self):
        _, catalog, ts = self._mk("age,sex,outcome,fever\n70,F,deceased,1\n")
        assert cover_of(ts, (catalog.id_of("Death"),)) == {0}
        assert cover_of(ts, (catalog.id_of("Recovery"),)) == set()

    def test_exactly_one_age_and_sex_item_per_row(self):
        text = "age,sex,outcome,fever\n" + "".join(
            f"{a},{s},recovered,1\n" for a, s in [(5, "M"), (25, "F"), (45, "M"), (80, "F")]
        )
        _, catalog, ts = self._mk(text)
        age_ids = [catalog.id_of(b) for b in ("<20", "20-40", "40-60", ">60")]
        sex_ids = [catalog.id_of(s) for s in ("Male", "Female")]
        for t in range(ts.n_transactions):
            assert sum((ts.cover_bits(i) >> t) & 1 for i in age_ids) == 1
            assert sum((ts.cover_bits(i) >> t) & 1 for i in sex_ids) == 1

    def test_missing_source_column_raises(self):
        table = parse_patient_csv("fever\n1\n")
        catalog = build_catalog(table, self.CFG)
        with pytest.raises(SchemaError):
            derive_items(table, self.CFG, catalog)

    def test_an_empty_value_map_is_every_row_missing(self):
        table = PatientTable(["fever"], [1], [30], sex={}, outcome={}, lab_result={})
        cfg = DerivationConfig(include_sex=True)
        with pytest.raises(SchemaError) as exc:
            derive_items(table, cfg, build_catalog(table, cfg))
        assert str(exc.value) == "row 2: sex derivation enabled but sex missing"

    def test_lab_item_only_when_present(self):
        text = "age,sex,outcome,lab_result,fever\n30,M,recovered,pos,1\n40,F,recovered,,1\n"
        _, catalog, ts = self._mk(text)
        assert cover_of(ts, (catalog.id_of("Lab_Res_Pos"),)) == {0}
        assert cover_of(ts, (catalog.id_of("Lab_Res_Neg"),)) == set()


class TestDropSparsePatients:
    def _mk(self):
        text = (
            "age,sex,outcome,fever,cough,apnea\n"
            "30,M,recovered,1,0,0\n"   # one symptom: dropped
            "40,M,recovered,1,1,0\n"   # two: kept
            "50,F,recovered,0,0,0\n"   # none: dropped
            "60,F,deceased,1,1,1\n"    # three: kept
        )
        cfg = DerivationConfig(True, True, True, False)
        table = parse_patient_csv(text)
        catalog = build_catalog(table, cfg)
        ts = derive_items(table, cfg, catalog)
        clinical = canonical_itemset(catalog.id_of(c) for c in table.symptom_columns)
        return ts, clinical, catalog

    def test_keeps_only_multi_symptom_rows(self):
        ts, clinical, catalog = self._mk()
        kept = drop_sparse_patients(ts, clinical)
        assert kept.n_transactions == 2
        # derived items never count toward the threshold
        assert cover_of(kept, (catalog.id_of("fever"),)) == {0, 1}

    def test_idempotent(self):
        ts, clinical, _ = self._mk()
        once = drop_sparse_patients(ts, clinical)
        twice = drop_sparse_patients(once, clinical)
        assert twice.n_transactions == once.n_transactions
        assert all(twice.cover_bits(i) == once.cover_bits(i) for i in once.item_ids())

    def test_min_count_validation(self):
        ts, clinical, _ = self._mk()
        with pytest.raises(ConfigError):
            drop_sparse_patients(ts, clinical, min_count=0)
