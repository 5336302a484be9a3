"""The benchmark's workloads: how each cohort is generated and mined.

Each workload is one ``rulemine synth`` cohort and one ``rulemine mine``
invocation on it. The mine flags are kept as fields so that the output
checker and the traced run read the same thresholds the CLI child gets.

Every cohort is drawn with synth seed 7; the bench seed then shuffles its
rows and its symptom columns. A shuffle keeps every count, so each seed
does the same mining work and emits the same rules (in a different item
order), while different seeds feed the program different bytes. Drawing
a new cohort per seed instead moves the work by far more than the
bench's bounds: over synth seeds 1-20 the paper cohort enumerates
151k-263k partitions and emits 80k-175k rules, and Myalgia (0.145)
crosses the 0.15 feature threshold in 2 of the 20.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from check import RESERVED

# The paper's cohort: 2875 patients, published symptom marginals, the
# Fever/Cough joint of Table 2, 24% mortality and 59% male.
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
PAPER_PLANTED = ("Fever", "Cough", "0.4024")
MORTALITY = "0.24"
MALE_FRACTION = "0.59"

# cohort_50k adds s00..s19 at marginals 0.16 + 0.01*j, all above the 0.15
# feature threshold, so selection keeps them and ingest carries 30 columns.
WIDE_MARGINALS = tuple((f"s{j:02d}", f"{0.16 + 0.01 * j:.2f}") for j in range(20))

COHORT_SEED = 7

# Flags every mine run shares.
DERIVE_FLAGS = ("--derive-age", "--derive-sex", "--derive-outcome")
MIN_LIFT = "1.0"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    marginals: tuple[tuple[str, str], ...]
    min_support: str
    target: str | None = None
    min_symptoms: int | None = None
    rows: int | None = None  # rules in the report, the same for every bench seed
    ref_reps: int = 3  # repetitions of the bench's reference computation

    def synth_argv(self, output: str) -> list[str]:
        argv = ["synth", "--n", str(self.n), "--seed", str(COHORT_SEED),
                "--mortality", MORTALITY, "--male-fraction", MALE_FRACTION]
        for name, p in self.marginals:
            argv += ["--marginal", f"{name}={p}"]
        argv += ["--planted", ",".join(PAPER_PLANTED), "--output", output]
        return argv

    def mine_argv(self, cohort: str) -> list[str]:
        argv = ["mine", "--input", cohort, *DERIVE_FLAGS,
                "--min-lift", MIN_LIFT, "--min-support", self.min_support]
        if self.min_symptoms is not None:
            argv += ["--min-symptoms", str(self.min_symptoms)]
        if self.target is not None:
            argv += ["--target-consequent", self.target]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_death",
            why="paper cohort, class rules with consequent Death: rules dominates, "
            "most enumerated partitions are filtered out",
            n=2875,
            marginals=PAPER_MARGINALS,
            min_support="0.001",
            target="Death",
            rows=516,
        ),
        Workload(
            name="paper_all",
            why="same cohort and itemsets with no target: ~105k rules emitted, "
            "so rule sorting and report formatting dominate",
            n=2875,
            marginals=PAPER_MARGINALS,
            min_support="0.001",
            rows=104836,
        ),
        Workload(
            name="cohort_50k",
            why="50k rows, 30 symptoms, --min-symptoms 2: ingest and the sparse "
            "drop dominate while rules is small",
            n=50000,
            marginals=PAPER_MARGINALS + WIDE_MARGINALS,
            min_support="0.05",
            target="Death",
            min_symptoms=2,
            rows=27,
            ref_reps=2,
        ),
    )
}


def shuffle_cohort(csv_text: str, seed: int) -> str:
    """The cohort with its rows and its symptom columns shuffled by ``seed``."""
    header, *rows = csv.reader(io.StringIO(csv_text))
    rng = random.Random(f"perfbench/{seed}")
    rng.shuffle(rows)
    symptoms = [k for k, c in enumerate(header) if c not in RESERVED]
    rng.shuffle(symptoms)
    order = [k for k, c in enumerate(header) if c in RESERVED] + symptoms
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in [header, *rows]:
        writer.writerow([row[k] for k in order])
    return buf.getvalue()
