"""Golden guard: `mine` report bytes on the bench's synthetic cohorts.

The paper digests were recorded from the reports of the release before
the depth-first miner; the miner and rule generation may change how they
compute, never what they print. The paper cohort is the seed-7 one: 2875
patients with the paper's published symptom marginals, the Fever/Cough
joint of Table 2, 24% mortality and 59% male. The 50k-row cohort adds 20
wide symptoms; its report is the one CI pins for the bench's
``cohort_50k`` workload.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rulemine.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

PAPER_MARGINALS = (
    ("Apnea", "0.72"),
    ("Cough", "0.64"),
    ("Fever", "0.59"),
    ("Ab_Chest_Xray", "0.2337"),
    ("CVD", "0.2077"),
    ("Ventilator", "0.1843"),
    ("Weakness", "0.18"),
    ("Myalgia", "0.145"),
    ("Sore_Throat", "0.12"),
    ("Conjunctivitis", "0.005"),
)

SYNTH_ARGV = [
    "synth", "--n", "2875", "--seed", "7", "--mortality", "0.24", "--male-fraction", "0.59",
    *(arg for name, p in PAPER_MARGINALS for arg in ("--marginal", f"{name}={p}")),
    "--planted", "Fever,Cough,0.4024",
]
# the 20 extra marginals of the bench's 50k-row cohort (perfbench/workloads.py)
WIDE_ARGV = [arg for j in range(20) for arg in ("--marginal", f"s{j:02d}={0.16 + 0.01 * j:.2f}")]
MINE_ARGV = [
    "mine", "--derive-age", "--derive-sex", "--derive-outcome",
    "--min-lift", "1.0", "--min-support", "0.001",
]

# (target consequent, format) -> SHA-256 of the report
DIGESTS = {
    ("Death", "csv"):
        "08ae468232ed23301319579efb531ec46e6d8a991910e15e5cf16d4467bb004a",
    ("Death", "md"):
        "cf044e50324b2c57f33c311307e9b85d80008198d635aad1cc33a77a3d37d9d2",
    ("Death", "json"):
        "22e3a833517f6dc7450db6f8abc948359496902b41141748d5da003d33533d88",
    (None, "csv"):
        "e9da8b333220a55f1cc9750a5f3392099bd1b662cc114715e247453acbc1db61",
    (None, "md"):
        "832018d64921eb8055480c28953b54a8e0b485745534e1237ece4d57ed3eec48",
    (None, "json"):
        "bfb73d71d76737c49dabadb6291cfb315e257845e8caef9eef773847f51fc2dc",
}


@pytest.fixture(scope="module")
def paper_cohort(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "cohort.csv"
    assert main([*SYNTH_ARGV, "--output", str(path)]) == 0
    return path


@pytest.mark.parametrize("target,fmt", sorted(DIGESTS, key=str))
def test_mine_report_bytes_unchanged(paper_cohort, tmp_path, target, fmt):
    out = tmp_path / f"report.{fmt}"
    argv = [*MINE_ARGV, "--input", str(paper_cohort), "--format", fmt, "--output", str(out)]
    if target is not None:
        argv += ["--target-consequent", target]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[target, fmt]


def test_stdout_report_is_the_output_file(paper_cohort, tmp_path):
    """``python -m rulemine`` with the bench's paper_death flags prints the
    bytes ``--output`` writes."""
    argv = [*MINE_ARGV, "--input", str(paper_cohort), "--target-consequent", "Death"]
    out = tmp_path / "report.csv"
    assert main([*argv, "--output", str(out)]) == 0
    child = subprocess.run([sys.executable, "-m", "rulemine", *argv], capture_output=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == out.read_bytes()


def test_cohort_50k_bench_report_bytes_unchanged(tmp_path):
    cohort, out = tmp_path / "cohort.csv", tmp_path / "report.csv"
    assert main([*SYNTH_ARGV, "--n", "50000", *WIDE_ARGV, "--output", str(cohort)]) == 0
    assert main([
        "mine", "--input", str(cohort), "--derive-age", "--derive-sex", "--derive-outcome",
        "--min-lift", "1.0", "--min-support", "0.05", "--min-symptoms", "2",
        "--target-consequent", "Death", "--output", str(out),
    ]) == 0
    report = out.read_bytes()
    assert report.count(b"\n") == 28
    assert (hashlib.sha256(report).hexdigest()
            == "29aa53e34d0b9af4206fab10f5e9770b01241e19cfd84be6898706be52748d6a")
