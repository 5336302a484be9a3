"""Tests of the benchmark's output checker and traced pipeline.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import check_report  # noqa: E402
from rulemine.cli import main  # noqa: E402
from workloads import PAPER_MARGINALS, WORKLOADS, Workload, shuffle_cohort  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402

# 400-row paper cohorts: one mined for all rules, one for class rules after
# the sparse drop, so both checker paths see a real report
CASES = {
    "all_rules": Workload(
        name="small", why="test cohort", n=400, marginals=PAPER_MARGINALS, min_support="0.02"
    ),
    "death_sparse": Workload(
        name="small_death", why="test cohort", n=400, marginals=PAPER_MARGINALS,
        min_support="0.02", target="Death", min_symptoms=2,
    ),
}


@pytest.fixture(scope="module", params=list(CASES))
def mined(request, tmp_path_factory):
    wl = CASES[request.param]
    d = tmp_path_factory.mktemp(request.param)
    synth, cohort, report = d / "synth.csv", d / "cohort.csv", d / "report.csv"
    assert main(wl.synth_argv(str(synth))) == 0
    cohort.write_text(shuffle_cohort(synth.read_text(), 3))
    assert main(wl.mine_argv(str(cohort)) + ["--output", str(report)]) == 0
    return wl, synth, cohort, report.read_text()


def rows_of(report_text):
    return list(csv.reader(io.StringIO(report_text)))


def to_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_checker_accepts_the_program_report(mined):
    wl, _, cohort, report_text = mined
    cohort_text = cohort.read_text()
    assert len(rows_of(report_text)) > 10
    assert check_report(cohort_text, report_text, run.thresholds(wl)) == []


def test_checker_rejects_one_altered_lift(mined):
    wl, _, cohort, report_text = mined
    cohort_text = cohort.read_text()
    rows = rows_of(report_text)
    rows[3][6] = f"{float(rows[3][6]) + 0.0002:.4f}"
    problems = check_report(cohort_text, to_text(rows), run.thresholds(wl))
    assert len(problems) == 1 and problems[0].startswith(f"line 4: Lift is {rows[3][6]},")


@pytest.mark.parametrize("recorded", [False, True])
def test_checker_rejects_a_removed_row(mined, recorded):
    wl, _, cohort, report_text = mined
    cohort_text = cohort.read_text()
    rows = rows_of(report_text)
    n_rules = len(rows) - 1
    del rows[5]
    problems = check_report(
        cohort_text, to_text(rows), run.thresholds(wl), n_rules if recorded else None
    )
    assert f"report has {n_rules - 1} distinct rules, expected {n_rules}" in problems
    if recorded:
        assert f"report has {n_rules - 1} rows, {n_rules} recorded for this workload" in problems


def test_checker_rejects_swapped_rows(mined):
    wl, _, cohort, report_text = mined
    cohort_text = cohort.read_text()
    rows = rows_of(report_text)
    rows[2], rows[6] = rows[6], rows[2]
    problems = check_report(cohort_text, to_text(rows), run.thresholds(wl))
    assert any("out of ranking order" in p for p in problems)


def test_shuffle_keeps_the_rules(mined):
    wl, synth, cohort, report_text = mined
    assert cohort.read_text() != synth.read_text()
    unshuffled = synth.with_name("unshuffled.csv")
    assert main(wl.mine_argv(str(synth)) + ["--output", str(unshuffled)]) == 0
    assert len(rows_of(unshuffled.read_text())) == len(rows_of(report_text))
    assert check_report(synth.read_text(), unshuffled.read_text(), run.thresholds(wl)) == []


def test_traced_pipeline_matches_the_cli_report(mined):
    wl, synth, cohort, report_text = mined
    tr = tracing.Tracer("test")
    assert tracing.synth(wl, tr) == synth.read_text()
    result = tracing.mine(wl.mine_argv(str(cohort)), tr)
    assert result.report == report_text
    assert result.counters["rules.emitted"] == len(rows_of(report_text)) - 1
    names = {s.name for s in tr.spans}
    assert {"cli.mine", "ingest.parse", "apriori.mine", "rules.generate", "cli.report"} <= names
    # the self times of the spans under the root add up to its duration
    selfs = tr.self_times()
    root = next(s for s in tr.spans if s.name == "cli.mine")
    assert sum(v for k, v in selfs.items() if not k.startswith("synth.")) == pytest.approx(
        root.end - root.start
    )


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(v) for v in range(20)]) == (50.0, 9.0)
    assert run.tail([float(v) for v in range(100)]) == (90.0, 89.0)


def test_benchmark_json_lists_what_the_bench_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in ("paper_death", "cohort_50k")
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
