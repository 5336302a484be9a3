import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemine.apriori import MiningConfig, mine_frequent
from rulemine.cli import METRIC_KEYS, emit_report, main
from rulemine.core import ItemCatalog
from rulemine.rules import Rule, RuleSet, generate_rules

from conftest import transaction_sets

CATALOG = ItemCatalog(["Fever", "Cough", "Apnea"])

# Table 2's first row as counts over the 2875-patient cohort
N_PAPER = 2875
TABLE2_ROW1 = Rule((0,), (1,), count=1157, antecedent_count=1686, consequent_count=1836)


@pytest.fixture
def cohort_csv(tmp_path):
    path = tmp_path / "cohort.csv"
    lines = ["age,sex,outcome,Fever,Cough,Apnea"]
    rows = [
        (30, "M", "recovered", 1, 1, 1),
        (40, "F", "recovered", 1, 1, 0),
        (55, "M", "deceased", 1, 0, 1),
        (70, "F", "deceased", 0, 1, 1),
        (25, "M", "recovered", 1, 1, 1),
        (35, "F", "recovered", 0, 0, 1),
    ]
    for r in rows:
        lines.append(",".join(str(v) for v in r))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEmitReport:
    def test_md_row_matches_published_rendering(self):
        out = emit_report(RuleSet([TABLE2_ROW1], N_PAPER), CATALOG, "md")
        assert "| Fever | Cough | 0.5864 | 0.6386 | 0.4024 | 0.6862 | 1.0746 | 0.0279 |" in out

    def test_empty_csv_is_header_only(self):
        out = emit_report(RuleSet([], N_PAPER), CATALOG, "csv")
        assert out.splitlines() == [
            "Antecedents,Consequents,Antecedent support,Consequent support,"
            "Support,Confidence,Lift,Leverage"
        ]

    def test_empty_json_is_empty_array(self):
        assert json.loads(emit_report(RuleSet([], N_PAPER), CATALOG, "json")) == []

    def test_multi_item_cell_canonical_order(self):
        rule = Rule((0, 2), (1,), 1157, 1686, 1836)
        out = emit_report(RuleSet([rule], N_PAPER), CATALOG, "csv")
        row = next(csv.reader(io.StringIO(out.splitlines()[1])))
        assert row[0] == "Fever, Apnea"

    def test_json_metrics_satisfy_invariants(self):
        out = json.loads(emit_report(RuleSet([TABLE2_ROW1], N_PAPER), CATALOG, "json"))
        (obj,) = out
        assert obj["confidence"] == pytest.approx(obj["support"] / obj["antecedent_support"], rel=1e-12)
        assert obj["lift"] == pytest.approx(
            obj["support"] / (obj["antecedent_support"] * obj["consequent_support"]), rel=1e-12
        )
        assert obj["n_transactions"] == 2875


@settings(max_examples=60, deadline=None)
@given(transaction_sets(max_items=6), st.sampled_from([0.05, 0.1, 0.3]))
def test_report_formats_the_exact_metrics(ts, min_support):
    # formatting from the integer counts must give the floats of the exact
    # Fractions: json to full precision, csv to 4 decimals
    cfg = MiningConfig(min_support=min_support, min_lift=0.0)
    rs = generate_rules(mine_frequent(ts, cfg), cfg)
    catalog = ItemCatalog([f"i{i}" for i in range(max(ts.item_ids()) + 1)])
    objs = json.loads(emit_report(rs, catalog, "json"))
    rows = list(csv.reader(io.StringIO(emit_report(rs, catalog, "csv"))))[1:]
    assert len(objs) == len(rows) == len(rs)
    for r, obj, row in zip(rs, objs, rows):
        m = rs.metrics(r)
        exact = [float(getattr(m, k)) for k in METRIC_KEYS]
        assert [obj[k] for k in METRIC_KEYS] == exact
        assert (obj["support_count"], obj["antecedent_count"], obj["consequent_count"]) == (
            r.count, r.antecedent_count, r.consequent_count)
        assert obj["n_transactions"] == ts.n_transactions
        assert row[2:] == [f"{v:.4f}" for v in exact]


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys, tmp_path):
        rc = main(["mine", "--input", str(tmp_path / "missing.csv")])
        assert rc == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_bad_threshold_is_usage_error(self, cohort_csv):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", str(cohort_csv), "--min-support", "1.5"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, cohort_csv):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", str(cohort_csv), "--frobnicate"])
        assert exc.value.code == 2

    def test_parse_error_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fever\n2\n")
        rc = main(["mine", "--input", str(path)])
        assert rc == 1
        assert "row 2" in capsys.readouterr().err


class TestMine:
    def test_md_report(self, capsys, cohort_csv):
        rc = main(["mine", "--input", str(cohort_csv), "--no-select",
                   "--min-lift", "0.0", "--format", "md"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| Antecedents | Consequents |")

    def test_target_consequent(self, capsys, cohort_csv):
        rc = main(["mine", "--input", str(cohort_csv), "--no-select", "--derive-outcome",
                   "--min-lift", "0.0", "--target-consequent", "Death", "--format", "json"])
        assert rc == 0
        rules = json.loads(capsys.readouterr().out)
        assert rules and all(r["consequent"] == ["Death"] for r in rules)

    def test_cohort_filter(self, capsys, cohort_csv):
        rc = main(["freq", "--input", str(cohort_csv), "--cohort", "deceased"])
        assert rc == 0
        out = capsys.readouterr().out
        counts = {row[0]: int(row[1]) for row in csv.reader(io.StringIO(out)) if row[0] != "item"}
        assert counts["Apnea"] == 2 and counts["Fever"] == 1

    def test_output_flag_writes_file(self, cohort_csv, tmp_path):
        out_path = tmp_path / "report.csv"
        rc = main(["mine", "--input", str(cohort_csv), "--no-select",
                   "--min-lift", "0.0", "--output", str(out_path)])
        assert rc == 0
        assert out_path.read_text().startswith("Antecedents,")

    def test_min_symptoms_drops_rows(self, capsys, cohort_csv):
        rc = main(["freq", "--input", str(cohort_csv)])
        assert rc == 0
        full = capsys.readouterr().out
        rc = main(["mine", "--input", str(cohort_csv), "--no-select", "--min-lift", "0.0",
                   "--min-symptoms", "2", "--format", "json"])
        assert rc == 0
        rules = json.loads(capsys.readouterr().out)
        # 5 of the 6 patients carry >= 2 symptoms
        assert rules and all(r["n_transactions"] == 5 for r in rules)
        assert full  # freq run unaffected

    def test_utf8_bom_input_mines_like_plain(self, capsys, cohort_csv, tmp_path):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + cohort_csv.read_bytes())
        reports = []
        for path in (cohort_csv, bom_csv):
            rc = main(["mine", "--input", str(path), "--derive-age", "--derive-outcome",
                       "--no-select", "--min-lift", "0.0"])
            assert rc == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and reports[0].count("\n") > 1


class TestSelectAndConfig:
    def test_select_lists_frequent_symptoms(self, capsys, cohort_csv):
        rc = main(["select", "--input", str(cohort_csv), "--threshold", "0.6"])
        assert rc == 0
        assert capsys.readouterr().out.split() == ["Apnea", "Fever", "Cough"]

    def test_config_file_defaults_and_flag_override(self, capsys, cohort_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-lift=0.0\nformat=json\nmin-support=0.9\n")
        rc = main(["mine", "--input", str(cohort_csv), "--no-select",
                   "--config", str(cfg), "--min-support", "0.1"])
        assert rc == 0
        rules = json.loads(capsys.readouterr().out)  # format taken from config
        assert rules  # min-support 0.9 would have produced nothing

    def test_utf8_bom_config_file(self, capsys, cohort_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfmin-lift=0.0\nformat=json\n")
        rc = main(["mine", "--input", str(cohort_csv), "--no-select", "--config", str(cfg)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)

    def test_bad_config_key(self, capsys, cohort_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        rc = main(["mine", "--input", str(cohort_csv), "--config", str(cfg)])
        assert rc == 1


class TestSynthCommand:
    def test_writes_parseable_csv(self, capsys):
        rc = main(["synth", "--n", "20", "--seed", "4", "--marginal", "fever=0.5",
                   "--marginal", "cough=0.4"])
        assert rc == 0
        from rulemine.ingest import parse_patient_csv

        table = parse_patient_csv(capsys.readouterr().out)
        assert len(table) == 20 and table.symptom_columns == ["fever", "cough"]

    def test_infeasible_planted_pair(self, capsys):
        rc = main(["synth", "--n", "10", "--marginal", "a=0.1", "--marginal", "b=0.1",
                   "--planted", "a,b,0.5"])
        assert rc == 1
        assert "bound" in capsys.readouterr().err


class TestVerifyCommand:
    def test_agreement(self, capsys, cohort_csv):
        rc = main(["verify", "--input", str(cohort_csv), "--min-support", "0.2"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out


class TestBadInputAndOutput:
    """Input and output failures exit 1 with one error line, never a traceback."""

    def _run(self, capsys, argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_input_not_utf8(self, capsys, cohort_csv, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(cohort_csv.read_bytes() + "30,M,recovered,1,0,0\n".encode() + b"\xe9\n")
        rc, out, err = self._run(capsys, ["mine", "--input", str(path)])
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot read input file {path}: not UTF-8")

    def test_config_not_utf8(self, capsys, cohort_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"format=json\nmin-lift=\xff\n")
        rc, out, err = self._run(capsys, ["mine", "--input", str(cohort_csv), "--config", str(cfg)])
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot read config file {cfg}: not UTF-8")

    def test_unwritable_output(self, capsys, cohort_csv, tmp_path):
        target = tmp_path / "no-such-dir" / "report.csv"
        rc, out, err = self._run(
            capsys, ["mine", "--input", str(cohort_csv), "--output", str(target)]
        )
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot write output file {target}:")

    def test_derive_error_names_the_csv_line(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "age,sex,outcome,Fever\n30,M,recovered,1\n50,F,deceased,1\n,M,deceased,0\n"
        )
        for cohort in ("all", "deceased"):
            rc, out, err = self._run(
                capsys, ["mine", "--input", str(path), "--derive-age", "--cohort", cohort]
            )
            assert (rc, out) == (1, "")
            assert err == "error: row 4: age derivation enabled but age missing\n"


def test_config_flag_with_equals_sign(capsys, cohort_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min-lift=0.0\nformat=json\n")
    reports = []
    for flag in (["--config", str(cfg)], [f"--config={cfg}"]):
        rc = main(["mine", "--input", str(cohort_csv), "--no-select", *flag])
        assert rc == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])
