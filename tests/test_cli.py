import contextlib
import csv
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemine import cli, core, ingest
from rulemine.apriori import MiningConfig, min_count, mine_frequent
from rulemine.cli import METRIC_KEYS, build_parser, emit_report, main
from rulemine.core import ItemCatalog
from rulemine.features import item_frequencies
from rulemine.ingest import (
    CohortSelector,
    DerivationConfig,
    build_catalog,
    derive_items,
    filter_cohort,
    parse_patient_csv,
)
from rulemine.rules import Rule, RuleSet, generate_rules
from rulemine.synth import CohortSpec, generate_cohort, serialize_patient_csv

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

    def test_md_escapes_a_pipe_in_an_item_name(self, capsys, tmp_path):
        # the reports of a cohort with an item "a|b" are those of the same
        # cohort with "a_b", renamed: escaped as a\|b in md, as it is in csv and json
        reports = {}
        for name in ("a|b", "a_b"):
            path = tmp_path / "pipe.csv"
            path.write_text(f"{name},c\n1,1\n1,0\n1,1\n0,1\n")
            for fmt in ("md", "csv", "json"):
                argv = ["mine", "--input", str(path), "--no-select", "--min-lift", "0"]
                assert main([*argv, "--format", fmt]) == 0
                reports[name, fmt] = capsys.readouterr().out
        assert reports["a|b", "md"] == reports["a_b", "md"].replace("a_b", r"a\|b")
        for fmt in ("csv", "json"):
            assert reports["a|b", fmt] == reports["a_b", fmt].replace("a_b", "a|b")
        rows = reports["a|b", "md"].splitlines()
        assert len(rows) == 4  # header, separator, a|b => c, c => a|b
        for row in rows:
            assert len(re.split(r"(?<!\\)\|", row)) == 10  # 8 cells between 9 unescaped pipes

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_md_writes_a_line_break_in_an_item_name_as_br(self, capsys, tmp_path, eol):
        path = tmp_path / "break.csv"
        path.write_bytes(f'"a{eol}b",f\n1,1\n1,0\n1,1\n0,1\n'.encode())
        argv = ["mine", "--input", str(path), "--no-select", "--min-lift", "0",
                "--min-support", "0.1"]
        assert main([*argv, "--format", "json"]) == 0
        rules = json.loads(capsys.readouterr().out)
        assert f"a{eol}b" in {name for r in rules for name in r["antecedent"] + r["consequent"]}
        assert main([*argv, "--format", "md"]) == 0
        out = capsys.readouterr().out
        rows = out.splitlines()
        assert len(rows) == 2 + len(rules)  # header, separator, one line per rule
        for row in rows:
            assert len(re.split(r"(?<!\\)\|", row)) == 10  # 8 cells between 9 unescaped pipes
        assert "a<br>b" in out

    def test_target_consequent(self, capsys, cohort_csv):
        rc = main(["mine", "--input", str(cohort_csv), "--no-select", "--derive-outcome",
                   "--min-lift", "0.0", "--target-consequent", "Death", "--format", "json"])
        assert rc == 0
        rules = json.loads(capsys.readouterr().out)
        assert rules and all(r["consequent"] == ["Death"] for r in rules)

    @pytest.mark.parametrize("min_support", ["0.001", "0"])
    def test_target_projected_away_is_header_only(self, capsys, tmp_path, min_support):
        # Rash is in 1 row of 10, below both selection thresholds
        path = tmp_path / "rare.csv"
        rows = ["30,M,recovered,1,1,0"] * 5 + ["50,F,deceased,0,1,0"] * 4
        rows.append("40,M,recovered,1,0,1")
        path.write_text("\n".join(["age,sex,outcome,Fever,Cough,Rash", *rows]) + "\n")
        assert main(["select", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "Cough\nFever\n"
        rc = main(["mine", "--input", str(path), "--derive-outcome", "--min-lift", "0",
                   "--min-support", min_support, "--target-consequent", "Rash"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (0, ",".join(cli.REPORT_COLUMNS) + "\n", "")

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
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", str(cohort_csv), "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"{cfg}:1:" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_parseable_csv(self, capsys):
        rc = main(["synth", "--n", "20", "--seed", "4", "--marginal", "fever=0.5",
                   "--marginal", "cough=0.4"])
        assert rc == 0
        from rulemine.ingest import parse_patient_csv

        table = parse_patient_csv(capsys.readouterr().out)
        assert len(table) == 20 and table.symptom_columns == ["fever", "cough"]

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "-1"])
        assert exc.value.code == 2
        assert "--n: must be >= 0" in capsys.readouterr().err

    def test_infeasible_planted_pair(self, capsys):
        rc = main(["synth", "--n", "10", "--marginal", "a=0.1", "--marginal", "b=0.1",
                   "--planted", "a,b,0.5"])
        assert rc == 1
        assert "bound" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--age-weights", "x=1", "unknown age bucket 'x'"),
        ("--planted", "a,q,0.1", "planted pair item 'q' has no marginal"),
        ("--planted", "a,a,0.1", "planted pair uses the same item twice: a"),
    ])
    def test_bad_spec_is_data_error(self, capsys, flag, value, message):
        rc = main(["synth", "--n", "10", "--marginal", "a=0.2", flag, value])
        out = capsys.readouterr()
        assert (rc, out.out, out.err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("config", ["", "marginal=a=0.0\n"])
    def test_marginal_named_twice_is_data_error(self, capsys, tmp_path, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        first = [] if config else ["--marginal", "a=0.0"]
        csv_path = tmp_path / "cohort.csv"
        rc = main(["synth", "--n", "3", "--config", str(cfg), *first, "--marginal", "b=0.5",
                   "--marginal", "a=1.0", "--output", str(csv_path)])
        out = capsys.readouterr()
        assert (rc, out.out, out.err) == (1, "", "error: --marginal a given twice\n")
        assert not csv_path.exists()


class TestVerifyCommand:
    def test_agreement(self, capsys, cohort_csv):
        rc = main(["verify", "--input", str(cohort_csv), "--min-support", "0.2"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_output_flag_writes_file(self, capsys, cohort_csv, tmp_path):
        out_path = tmp_path / "verify.txt"
        rc = main(["verify", "--input", str(cohort_csv), "--output", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("OK: ")


# the flags of the bench's paper_death workload: the paper's Death rules
PAPER_DEATH_FLAGS = [
    "--derive-age", "--derive-sex", "--derive-outcome", "--min-lift", "1.0",
    "--min-support", "0.001", "--target-consequent", "Death",
]


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    spec = CohortSpec(
        n=400,
        marginals={"Apnea": 0.72, "Cough": 0.64, "Fever": 0.59, "Ab_Chest_Xray": 0.23,
                   "CVD": 0.21},
        planted_pairs=[("Fever", "Cough", 0.4024)],
        seed=7,
    )
    path = tmp_path_factory.mktemp("synth") / "cohort.csv"
    path.write_text(serialize_patient_csv(generate_cohort(spec)))
    return path


class TestVerifyPipeline:
    """verify runs mine's pipeline, so mine's flags are cross-checked too."""

    @pytest.mark.parametrize("extra", [[], ["--min-symptoms", "2", "--max-len", "3"]])
    def test_paper_death_flags_match_oracle(self, capsys, synth_csv, extra):
        rc = main(["verify", "--input", str(synth_csv), *PAPER_DEATH_FLAGS, *extra])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.startswith("OK: ") and " 0 rules" not in out

    @pytest.mark.parametrize("target", [["--target-consequent", "Death"], []],
                             ids=["targeted", "untargeted"])
    def test_builds_the_oracle_lattice_once(self, capsys, synth_csv, target):
        from rulemine import oracle

        flags = PAPER_DEATH_FLAGS[:-2] + target
        with patch.object(oracle, "brute_frequent", wraps=oracle.brute_frequent) as spy:
            assert main(["verify", "--input", str(synth_csv), *flags]) == 0
        assert capsys.readouterr().out.startswith("OK: ")
        assert spy.call_count == 1

    def test_refuses_too_many_items_before_mining(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        header = [f"s{j:02d}" for j in range(25)]
        rows = [header, ["1"] * 25, ["0", "1"] * 12 + ["0"]]
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        with patch.object(cli, "mine_frequent") as miner:
            rc = main(["verify", "--input", str(path), "--no-select"])
        # 2^25 - 1 subsets of the all-ones row and 2^12 - 1 of the other
        expected = "error: oracle refuses 33558526 subsets (limit 16777216)\n"
        assert (rc, capsys.readouterr()) == (1, ("", expected))
        miner.assert_not_called()

    def test_verifies_more_than_24_items(self, capsys, tmp_path):
        spec = CohortSpec(n=300, marginals={f"s{j:02d}": 0.1 + j / 50 for j in range(30)}, seed=7)
        path = tmp_path / "wide.csv"
        path.write_text(serialize_patient_csv(generate_cohort(spec)))
        rc = main(["verify", "--input", str(path), "--no-select", "--max-len", "2"])
        assert (rc, capsys.readouterr()) == (
            0, ("OK: 465 frequent itemsets, 414 rules match the brute-force oracle\n", ""))

    def test_huge_max_len_is_no_max_len(self, capsys, synth_csv):
        argv = ["verify", "--input", str(synth_csv), "--derive-outcome",
                "--target-consequent", "Death"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        assert expected.out.startswith("OK: ")
        assert main([*argv, "--max-len", "1000000000"]) == 0
        assert capsys.readouterr() == expected

    def test_same_rules_as_mine(self, capsys, synth_csv):
        argv = ["--input", str(synth_csv), *PAPER_DEATH_FLAGS, "--max-len", "3"]
        assert main(["mine", *argv, "--format", "json"]) == 0
        n_rules = len(json.loads(capsys.readouterr().out))
        assert main(["verify", *argv]) == 0
        assert f" {n_rules} rules match" in capsys.readouterr().out

    def test_catches_miner_ignoring_max_len(self, capsys, monkeypatch, synth_csv):
        real = cli.mine_frequent
        monkeypatch.setattr(
            cli, "mine_frequent",
            lambda ts, cfg: real(ts, MiningConfig(**(vars(cfg) | {"max_len": None}))),
        )
        rc = main(["verify", "--input", str(synth_csv), *PAPER_DEATH_FLAGS,
                   "--min-symptoms", "2", "--max-len", "3"])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert "MISMATCH" in err

    @pytest.mark.parametrize("defect", ["drop", "inflate"])
    def test_catches_a_wrong_targeted_family(self, capsys, monkeypatch, synth_csv, defect):
        real = cli.mine_frequent

        def defective(ts, cfg):
            fi = real(ts, cfg)
            if cfg.target_consequent:
                # the itemset of a rule that passes: its X∪Y
                rule = generate_rules(fi, cfg).rules[0]
                z = tuple(sorted(rule.antecedent + rule.consequent))
                if defect == "drop":
                    del fi.counts[z]
                else:
                    fi.counts[z] += 1
            return fi

        argv = ["verify", "--input", str(synth_csv), *PAPER_DEATH_FLAGS, "--max-len", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("OK: ")
        monkeypatch.setattr(cli, "mine_frequent", defective)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert "MISMATCH" in err

    @pytest.mark.parametrize("target,defect,groups,flags", [
        # lift exactly --min-lift is dropped; a lift need that ignores strict keeps it
        ("rulemine.rules.min_count", lambda t, strict=False: min_count(t),
         [("1,1", 17), ("1,0", 3), ("0,1", 33), ("0,0", 47)],
         ["--min-support", "0.1", "--min-lift", "1.7"]),
        # support exactly --min-support is kept; a strict support need drops it
        ("rulemine.apriori.min_count", lambda t, strict=False: min_count(t, strict=True),
         [("1,1", 3), ("1,0", 1), ("0,0", 6)],
         ["--min-support", "0.3", "--min-lift", "0"]),
    ])
    def test_catches_a_wrong_threshold_predicate(
        self, capsys, monkeypatch, tmp_path, target, defect, groups, flags
    ):
        path = tmp_path / "boundary.csv"
        path.write_text("a,b\n" + "".join(f"{row}\n" * k for row, k in groups))
        argv = ["verify", "--input", str(path), "--no-select", *flags]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("OK: ")
        monkeypatch.setattr(target, defect)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert "MISMATCH" in err


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


class TestConfigLines:
    """Config lines are parsed as flags of the chosen subcommand."""

    def _cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_bad_choice_is_usage_error(self, capsys, cohort_csv, tmp_path):
        cfg = self._cfg(tmp_path, "min-lift=0\nformat=xml\n")
        err = _usage_error(capsys, ["mine", "--input", str(cohort_csv),
                                    "--config", str(cfg)])
        assert f"{cfg}:2:" in err and "xml" in err

    def test_bad_type_is_usage_error(self, capsys, cohort_csv, tmp_path):
        cfg = self._cfg(tmp_path, "# thresholds\n\nmin_support=1.5\n")
        err = _usage_error(capsys, ["mine", "--input", str(cohort_csv),
                                    "--config", str(cfg)])
        assert f"{cfg}:3:" in err

    @pytest.mark.parametrize("line", ["derive_age", "derive_age=1", "derive-age = true"])
    def test_switch_keys(self, capsys, cohort_csv, tmp_path, line):
        base = ["mine", "--input", str(cohort_csv), "--no-select", "--min-lift", "0"]
        assert main([*base, "--derive-age"]) == 0
        expected = capsys.readouterr().out
        assert main([*base, "--config", str(self._cfg(tmp_path, line + "\n"))]) == 0
        assert capsys.readouterr().out == expected
        assert "<20" in expected or "20-40" in expected

    def test_switch_key_false_is_usage_error(self, capsys, cohort_csv, tmp_path):
        cfg = self._cfg(tmp_path, "derive_age=0\n")
        err = _usage_error(capsys, ["mine", "--input", str(cohort_csv),
                                    "--config", str(cfg)])
        assert f"{cfg}:1:" in err

    def test_key_of_another_subcommand_is_usage_error(self, capsys, tmp_path):
        cfg = self._cfg(tmp_path, "max_len=2\n")
        err = _usage_error(capsys, ["synth", "--n", "5", "--config", str(cfg)])
        assert f"{cfg}:1:" in err and "max_len" in err

    def test_value_key_without_value_is_usage_error(self, capsys, cohort_csv, tmp_path):
        cfg = self._cfg(tmp_path, "min_support\n")
        err = _usage_error(capsys, ["mine", "--input", str(cohort_csv),
                                    "--config", str(cfg)])
        assert f"{cfg}:1:" in err

    def test_verify_honours_config(self, capsys, synth_csv, tmp_path):
        cfg = self._cfg(tmp_path, "derive_outcome\ntarget_consequent=Death\nmax_len=2\n")
        flags = ["--derive-outcome", "--target-consequent", "Death", "--max-len", "2"]
        assert main(["verify", "--input", str(synth_csv), *flags]) == 0
        expected = capsys.readouterr().out
        assert main(["verify", "--input", str(synth_csv), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected
        assert main(["verify", "--input", str(synth_csv)]) == 0
        assert capsys.readouterr().out != expected

    def test_input_from_config_and_append_flags_add(self, capsys, tmp_path):
        cfg = self._cfg(tmp_path, "n=12\nseed=3\nmarginal=a=0.5\n")
        assert main(["synth", "--config", str(cfg), "--marginal", "b=0.25"]) == 0
        generated = capsys.readouterr().out
        assert generated.splitlines()[0].endswith(",a,b")
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(generated)
        cfg = self._cfg(tmp_path, f"input={csv_path}\n")
        assert main(["freq", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("item,count,fraction\n")

    @pytest.mark.parametrize("flag", ["--conf", "--co"])
    def test_abbreviated_config_flag_is_usage_error(self, capsys, cohort_csv, tmp_path, flag):
        # --conf would be read by the parser but not by the config lookup
        cfg = self._cfg(tmp_path, "format=json\n")
        _usage_error(capsys, ["mine", "--input", str(cohort_csv), flag, str(cfg)])

    def test_unreadable_config_is_data_error(self, capsys, cohort_csv, tmp_path):
        missing = tmp_path / "missing.cfg"
        rc = main(["mine", "--input", str(cohort_csv), "--config", str(missing)])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot read config file {missing}")


def _config_keys():
    _, subparsers = build_parser()
    flags = {f for p in subparsers.values() for f in p._option_string_actions}
    # output would write files wherever the test runs
    return sorted(f[2:] for f in flags if f.startswith("--") and f != "--output")


FUZZ_CSV = (b"age,sex,outcome,Fever,Cough,Apnea\n30,M,recovered,1,1,1\n"
            b"40,F,recovered,1,1,0\n55,M,deceased,1,0,1\n70,F,deceased,0,1,1\n"
            b"25,M,recovered,1,1,1\n")
FUZZ_VALUES = ["", "0", "1", "2", "0.5", "1.5", "-1", "nan", "inf", "true", "abc", "xml",
               "json", "Death", "Fever,Cough", "deceased", "20-60", "a=0.5", "a,b,0.1",
               "<20=1,>60=2"]


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["freq", "select", "mine", "synth", "verify"]),
    edits=st.lists(st.tuples(st.integers(0, len(FUZZ_CSV) - 1), st.integers(0, 255)),
                   max_size=2),
    cut=st.none() | st.integers(0, len(FUZZ_CSV)),
    lines=st.lists(
        st.tuples(
            st.sampled_from(_config_keys()) | st.text("abcz_-", min_size=1, max_size=6),
            st.none() | st.sampled_from(FUZZ_VALUES) | st.text(max_size=4),
        ),
        max_size=3,
    ),
)
def test_main_never_crashes(command, edits, cut, lines):
    # bad input or config exits 1 or 2 with nothing on stdout, never a traceback
    data = bytearray(FUZZ_CSV[:cut])  # the whole file when cut is None
    for pos, byte in edits:
        if pos < len(data):
            data[pos] = byte
    text = "".join(key + "\n" if value is None else f"{key}={value}\n" for key, value in lines)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, cfg_path = os.path.join(tmp, "in.csv"), os.path.join(tmp, "run.cfg")
        with open(csv_path, "wb") as fh:
            fh.write(data)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        head = ["--n", "4"] if command == "synth" else ["--input", csv_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main([command, *head, "--config", cfg_path])
            except SystemExit as exc:
                rc = exc.code
    assert rc in (0, 1, 2)
    if rc != 0:
        assert out.getvalue() == ""


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
        for text in (
            "age,sex,outcome,Fever\n30,M,recovered,1\n50,F,deceased,1\n,M,deceased,0\n",
            # the first row's quoted id spans lines 2-3
            'id,age,outcome,Fever\n"a\nb",50,deceased,1\nc,,deceased,0\n',
        ):
            path.write_text(text)
            for cohort in ("all", "deceased"):
                rc, out, err = self._run(
                    capsys, ["mine", "--input", str(path), "--derive-age", "--cohort", cohort]
                )
                assert (rc, out) == (1, "")
                assert err == "error: row 4: age derivation enabled but age missing\n"

    @pytest.mark.parametrize("header,column", [("Apnea,Cough,", 3), ("Apnea,,Cough,", 2)])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["quote_free", "quoted"])
    def test_empty_header_name_names_its_column(self, capsys, tmp_path, header, column, quote):
        rows = [header.split(","), ["1"] * (header.count(",") + 1)]
        path = tmp_path / "blank.csv"
        path.write_text("".join(",".join(quote + c + quote for c in row) + "\n" for row in rows))
        rc, out, err = self._run(capsys, ["mine", "--input", str(path)])
        assert (rc, out, err) == (1, "", f"error: row 1: column {column} has an empty header name\n")

    @pytest.mark.parametrize("name", [" Cough", "Cough ", "Sore, throat"])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["quote_free", "quoted"])
    def test_header_name_with_a_comma_or_outer_whitespace_names_its_column(
        self, capsys, tmp_path, name, quote
    ):
        path = tmp_path / "names.csv"
        body = ",".join(quote + c + quote for c in ["1", "1", "30"])
        path.write_text(ingest.csv_text([["Apnea", name, "age"]]) + body + "\n")
        rc, out, err = self._run(capsys, ["mine", "--input", str(path)])
        message = f"error: row 1: column 2 name {name!r} has a comma or outer whitespace\n"
        assert (rc, out, err) == (1, "", message)

    def test_negative_age_names_the_row(self, capsys, tmp_path):
        path = tmp_path / "age.csv"
        path.write_text("age,Fever\n30,1\n-3,0\n")
        rc, out, err = self._run(capsys, ["mine", "--input", str(path)])
        assert (rc, out, err) == (1, "", "error: row 3, column age: negative age -3\n")

    @pytest.mark.parametrize(
        "command", [["freq"], ["select"], ["mine"], ["mine", "--no-select"], ["verify"]],
        ids=["freq", "select", "mine", "mine_no_select", "verify"],
    )
    def test_no_rows_names_the_input_and_cohort(self, capsys, tmp_path, command):
        path = tmp_path / "few.csv"
        path.write_text("age,outcome,Fever\n")
        rc, out, err = self._run(capsys, [*command, "--input", str(path)])
        assert (rc, out, err) == (1, "", f"error: no patient rows in input file {path}\n")
        path.write_text("age,outcome,Fever\n30,recovered,1\n70,recovered,0\n")
        for cohort in ("deceased", "0-20"):
            rc, out, err = self._run(capsys, [*command, "--input", str(path), "--cohort", cohort])
            assert (rc, out) == (1, "")
            assert err == f"error: no patient rows in input file {path} with --cohort {cohort}\n"

    @pytest.mark.parametrize(
        "command", [["mine"], ["mine", "--no-select"], ["verify"]],
        ids=["mine", "mine_no_select", "verify"],
    )
    def test_min_symptoms_dropping_every_row_names_the_flag(self, capsys, tmp_path, command):
        path = tmp_path / "sparse.csv"
        path.write_text("age,outcome,Fever,Cough\n30,recovered,1,0\n40,deceased,0,1\n")
        argv = [*command, "--input", str(path), "--min-symptoms", "2"]
        rc, out, err = self._run(capsys, argv)
        assert (rc, out, err) == (
            1, "", f"error: no patient rows in input file {path} with --min-symptoms 2\n"
        )

    @pytest.mark.parametrize("command", ["mine", "verify"])
    def test_zero_count_error_names_the_items(self, capsys, tmp_path, command):
        # a and b never meet, so {a, b} has count 0 and {a, b} => c no metrics
        path = tmp_path / "zero.csv"
        path.write_text("a,b,c\n1,0,1\n0,1,1\n1,0,0\n")
        argv = [command, "--input", str(path), "--no-select", "--min-support", "0",
                "--min-lift", "0"]
        rc, out, err = self._run(capsys, argv)
        assert (rc, out, err) == (1, "", "error: metrics undefined for zero count: a, b => c\n")

    def test_cohort_error_names_the_csv_line(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("age,outcome,Fever\n30,recovered,1\n50,,1\n,deceased,0\n")
        for cohort, message in (
            ("deceased", "row 3: deceased cohort filter needs outcome but outcome missing"),
            ("recovered", "row 3: recovered cohort filter needs outcome but outcome missing"),
            ("20-60", "row 4: age_range cohort filter needs age but age missing"),
        ):
            rc, out, err = self._run(capsys, ["mine", "--input", str(path), "--cohort", cohort])
            assert (rc, out, err) == (1, "", f"error: {message}\n")


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


class TestFlagValues:
    """Every flag value is parsed and range-checked by its argparse type."""

    @pytest.mark.parametrize("flag,value", [
        ("--marginal", "foo"), ("--marginal", "a=1.5"), ("--planted", "a,b"),
        ("--planted", "a,b,x"), ("--age-weights", "x"), ("--age-weights", "<20=-1"),
        ("--marginal", "age=0.5"), ("--marginal", "id=0.5"), ("--marginal", "=0.5"),
        ("--marginal", " X=0.5"), ("--marginal", "X =0.5"), ("--marginal", "Sore, throat=0.5"),
    ])
    def test_bad_synth_value_is_usage_error(self, capsys, flag, value):
        err = _usage_error(capsys, ["synth", "--n", "5", "--marginal", "a=0.5",
                                    "--marginal", "b=0.5", flag, value])
        assert f"argument {flag}:" in err and value in err

    def test_bad_synth_config_line_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("marginal=a=0.5\nmarginal=foo\n")
        err = _usage_error(capsys, ["synth", "--n", "5", "--config", str(cfg)])
        assert f"{cfg}:2:" in err and "foo" in err

    @pytest.mark.parametrize("flag,value", [
        ("--min-lift", "inf"), ("--min-lift", "nan"), ("--min-support", "1/2"),
        ("--min-confidence", "1.0000000000000001"), ("--min-support", "1e-100000000"),
    ])
    def test_bad_threshold_value_is_usage_error(self, capsys, cohort_csv, flag, value):
        err = _usage_error(capsys, ["mine", "--input", str(cohort_csv), flag, value])
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("value", ["", "Death,", " ,Death"])
    def test_empty_target_name_is_usage_error(self, capsys, cohort_csv, tmp_path, value):
        argv = ["mine", "--input", str(cohort_csv), "--derive-outcome"]
        err = _usage_error(capsys, [*argv, "--target-consequent", value])
        assert "argument --target-consequent:" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"target_consequent={value}\n")
        err = _usage_error(capsys, [*argv, "--config", str(cfg)])
        assert f"{cfg}:1:" in err

    def test_synth_types_build_the_spec(self, capsys):
        argv = ["synth", "--n", "30", "--seed", "2", "--marginal", "a=0.4", "--marginal",
                "b=0.5", "--planted", "a,b,0.3", "--age-weights", "<20=0.5,>60=0.5"]
        assert main(argv) == 0
        spec = CohortSpec(n=30, marginals={"a": 0.4, "b": 0.5}, seed=2,
                          planted_pairs=[("a", "b", 0.3)],
                          age_weights=[("<20", 0.5), (">60", 0.5)])
        assert capsys.readouterr().out == serialize_patient_csv(generate_cohort(spec))

    def test_threshold_is_every_digit_typed(self, capsys, tmp_path):
        # a is in 3 of 4 rows, b and {a, b} in 2: support exactly 1/2, which
        # 0.50000000000000001 excludes although its float is 0.5
        path = tmp_path / "four.csv"
        path.write_text("a,b\n1,1\n1,0\n1,1\n0,0\n")
        base = ["--input", str(path), "--no-select", "--min-lift", "0"]
        for value, itemsets, rules in (("0.5", 3, 2), ("0.50000000000000001", 1, 0)):
            assert main(["mine", *base, "--min-support", value, "--format", "json"]) == 0
            assert len(json.loads(capsys.readouterr().out)) == rules
            assert main(["verify", *base, "--min-support", value]) == 0
            assert capsys.readouterr().out.startswith(
                f"OK: {itemsets} frequent itemsets, {rules} rules")

    def test_thresholds_are_exact_fractions(self):
        parser, _ = build_parser()
        args = parser.parse_args(["mine", "--input", "x.csv", "--min-lift", "1.1"])
        for name in ("feature_threshold", "feature_threshold_deceased", "min_support",
                     "min_confidence", "min_lift"):
            assert type(getattr(args, name)) is Fraction
        assert (args.min_support, args.min_lift) == (Fraction(1, 1000), Fraction(11, 10))


# options whose value is free text, used as given
FREE_TEXT = {"--input", "--output", "--config"}


def test_every_flag_value_is_parsed_by_argparse():
    # a value flag without a type or choices would be parsed after argparse
    _, subparsers = build_parser()
    for name, sub in subparsers.items():
        for action in sub._actions:
            if action.nargs == 0 or set(action.option_strings) & FREE_TEXT:
                continue
            assert action.type is not None or action.choices is not None, (
                name, action.option_strings)


def test_blank_outcome_is_not_deceased(capsys, tmp_path):
    # Rare is in 1 of 8 rows, under 0.15, and in 1 of the 2 deceased rows,
    # over 0.4; counting the blank outcome as deceased would make it 1 of 3
    path = tmp_path / "blank.csv"
    rows = ["deceased,1,1", "deceased,1,0", ",1,0", "recovered,1,0", "recovered,0,0",
            "recovered,1,0", "recovered,1,0", "recovered,0,0"]
    path.write_text("outcome,Fever,Rare\n" + "".join(r + "\n" for r in rows))
    argv = ["--input", str(path), "--min-lift", "0", "--min-support", "0.1"]
    assert main(["mine", *argv, "--feature-threshold-deceased", "0.4", "--format", "json"]) == 0
    assert any("Rare" in r["antecedent"] + r["consequent"]
               for r in json.loads(capsys.readouterr().out))
    assert main(["mine", *argv, "--feature-threshold-deceased", "0.5"]) == 0
    assert "Rare" not in capsys.readouterr().out
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out.startswith("OK: ")


class TestCohortFlag:
    def test_age_range_freq_matches_the_library(self, capsys, cohort_csv):
        assert main(["freq", "--input", str(cohort_csv), "--cohort", "20-40"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        sel = CohortSelector("age_range", lo=20, hi=40)
        table = filter_cohort(parse_patient_csv(cohort_csv.read_text()), sel)
        assert list(table.age) == [30, 25, 35]  # 40 is outside the half-open range
        catalog = build_catalog(table, DerivationConfig())
        freq = item_frequencies(derive_items(table, DerivationConfig(), catalog))
        assert header == ["item", "count", "fraction"]
        assert sorted(rows) == sorted(
            [catalog.name_of(i), str(count), repr(float(Fraction(count, freq.n_transactions)))]
            for i, count in freq.counts.items()
        )

    @pytest.mark.parametrize("ages", [range(600), [5, 2**70, 150]], ids=["600_ages", "2**70"])
    def test_age_range_over_any_ages(self, capsys, tmp_path, ages):
        path = tmp_path / "ages.csv"
        path.write_text("age,Fever\n" + "".join(f"{a},{a % 2}\n" for a in ages))
        argv = ["freq", "--input", str(path), "--derive-age", "--cohort", "100-300"]
        assert main(argv) == 0
        kept = [a for a in ages if 100 <= a < 300]
        _, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert {item: int(count) for item, count, _ in rows} == {
            "Fever": sum(a % 2 for a in kept), "<20": 0, "20-40": 0, "40-60": 0, ">60": len(kept)
        }

    @pytest.mark.parametrize("value", ["40-20", "20-x", "20-"])
    def test_bad_age_range_is_usage_error(self, capsys, cohort_csv, value):
        err = _usage_error(capsys, ["freq", "--input", str(cohort_csv), "--cohort", value])
        assert "argument --cohort:" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["age_range", "Deceased", "20-40-60", "-5-10"])
    def test_bad_cohort_is_one_usage_error(self, capsys, cohort_csv, value):
        # "=" hands "-5-10" to the --cohort type rather than reading it as a flag
        err = _usage_error(capsys, ["freq", "--input", str(cohort_csv), f"--cohort={value}"])
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.endswith(f"argument --cohort: cohort must be all, deceased, recovered, "
                             f"or LO-HI: {value!r}")

    def test_a_blank_age_outside_the_cohort(self, capsys, tmp_path):
        """``--derive-age`` needs an age in the cohort's rows only: the
        deceased cohort mines as if the blank row were not in the file."""
        lines = ["age,outcome,Fever,Cough", "30,deceased,1,1", ",recovered,1,0",
                 "50,deceased,0,1", "70,recovered,1,1"]
        path, without = tmp_path / "blank.csv", tmp_path / "without.csv"
        path.write_text("".join(line + "\n" for line in lines))
        without.write_text("".join(line + "\n" for k, line in enumerate(lines) if k != 2))
        argv = ["mine", "--derive-age", "--min-lift", "0", "--cohort"]
        assert main([*argv, "deceased", "--input", str(without)]) == 0
        expected = capsys.readouterr().out
        assert expected.count("\n") > 1  # rules, not a header alone
        assert main([*argv, "deceased", "--input", str(path)]) == 0
        assert capsys.readouterr().out == expected
        assert main([*argv, "recovered", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: row 3: age derivation enabled but age missing\n"

    def test_the_cli_repacks_no_patient_table(self, capsys, cohort_csv):
        """A cohort is a row set of the parsed table: ingest renumbers no
        column, and the miner's own renumbering of the kept rows goes
        through ``core``."""
        argv = ["mine", "--input", str(cohort_csv), "--derive-age", "--derive-outcome",
                "--min-lift", "0", "--cohort", "deceased"]
        with (
            patch.object(ingest, "row_compactor", side_effect=AssertionError("table re-packed")),
            patch.object(core, "row_compactor", wraps=core.row_compactor) as miner_compactor,
        ):
            assert main(argv) == 0
        assert miner_compactor.called  # 2 of 6 rows kept: the miner compacts them
        assert capsys.readouterr().out.count("\n") > 1
