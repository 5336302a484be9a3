"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 1 is implemented exactly as stated and is expected to
fail for the four low-support rows of the published rule table: their
printed lifts cannot be recovered to +/-0.002 from supports rounded to 4
decimals (see the companion count-snapped test, which shows the same rows
reconstruct to <1e-3 once supports are snapped to integer counts over the
2875-patient cohort).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from rulemine.apriori import MiningConfig, mine_frequent
from rulemine.cli import main
from rulemine.core import canonical_itemset
from rulemine.features import FrequencyMap, select_features
from rulemine.ingest import DerivationConfig, build_catalog, derive_items
from rulemine.oracle import brute_frequent, brute_rules
from rulemine.rules import generate_rules, metrics
from rulemine.synth import CohortSpec, generate_cohort, serialize_patient_csv

from conftest import random_transaction_set, support_of


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {name}: {status}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {num} failed: {failures}"


# (label, antecedent support, consequent support, support, confidence, lift, leverage)
TABLE2_ROWS = [
    ("Fever -> Cough", 0.5864, 0.6386, 0.4024, 0.6862, 1.0746, 0.0279),
    ("Apnea, Cough -> Fever", 0.4650, 0.5864, 0.2908, 0.6253, 1.0662, 0.0181),
    ("Ab_Chest_Xray -> Apnea", 0.2337, 0.7183, 0.1683, 0.7202, 1.0028, 0.0005),
    ("Apnea -> Ab_Chest_Xray", 0.7183, 0.2337, 0.1683, 0.2344, 1.0028, 0.0005),
    ("Ab_Chest_Xray, Apnea -> CVD", 0.1683, 0.2077, 0.0508, 0.3017, 1.4527, 0.0158),
    ("Ab_Chest_Xray, Apnea, CVD -> Ventilator", 0.0508, 0.1843, 0.0240, 0.4726, 2.5636, 0.0146),
    ("Ab_Chest_Xray, Weakness, Fever, CVD -> Apnea, Cough", 0.0059, 0.4650, 0.0031, 0.5294, 1.1384, 0.0004),
    ("Weakness, Apnea, Fever, CVD -> Ab_Chest_Xray, Cough", 0.0129, 0.1301, 0.0031, 0.2432, 1.8699, 0.0015),
    ("Weakness, Cough, Fever, CVD -> Ab_Chest_Xray, Apnea", 0.0132, 0.1683, 0.0031, 0.2368, 1.4069, 0.0009),
    ("Ab_Chest_Xray, Weakness, Apnea, Fever -> Cough, CVD", 0.0160, 0.1203, 0.0031, 0.1957, 1.6257, 0.0012),
]

COHORT_SIZE = 2875


def test_criterion_1_table2_metric_reconstruction():
    """Rounded published supports -> printed confidence/lift/leverage, +/-0.002."""
    start = time.perf_counter()
    failures = []
    for label, ant, cons, supp, p_conf, p_lift, p_lev in TABLE2_ROWS:
        m = metrics(supp, ant, cons)
        for metric, got, want in (
            ("confidence", m.confidence, p_conf),
            ("lift", m.lift, p_lift),
            ("leverage", m.leverage, p_lev),
        ):
            if abs(got - want) > 0.002:
                failures.append(f"{label}: {metric} {got:.4f} vs printed {want} (|d|={abs(got - want):.4f})")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "Table 2 metric reconstruction", failures)


def test_criterion_1_supplement_count_snapped_table2():
    """Same rows reconstruct to <1e-3 after snapping supports to integer
    counts over the 2875-patient cohort; isolates criterion 1's failure to
    the rounding of the published supports, not to the metric formulas."""
    for label, ant, cons, supp, p_conf, p_lift, p_lev in TABLE2_ROWS:
        a = Fraction(round(ant * COHORT_SIZE), COHORT_SIZE)
        c = Fraction(round(cons * COHORT_SIZE), COHORT_SIZE)
        s = Fraction(round(supp * COHORT_SIZE), COHORT_SIZE)
        m = metrics(s, a, c)
        assert abs(m.confidence - p_conf) < 1e-3, label
        assert abs(m.lift - p_lift) < 1e-3, label
        assert abs(m.leverage - p_lev) < 1e-3, label


# confidence-1 fixtures: (antecedent support, consequent support); support
# equals antecedent support in every such published row
CONF1_AGE_ROWS = [
    (0.003, 0.622), (0.002, 0.622), (0.002, 0.622), (0.002, 0.622),
    (0.002, 0.622), (0.002, 0.622), (0.002, 0.622), (0.002, 0.639),
    (0.002, 0.718), (0.002, 0.718), (0.002, 0.718), (0.001, 0.234),
    (0.001, 0.234), (0.001, 0.402),
]
CONF1_OUTCOME_ROWS = [
    (0.0271, 0.759), (0.0237, 0.759), (0.0223, 0.759), (0.0177, 0.759),
    (0.0163, 0.759), (0.0153, 0.759), (0.0129, 0.759), (0.009, 0.759),
    (0.0087, 0.759), (0.0045, 0.759), (0.0042, 0.759), (0.0035, 0.759),
    (0.0024, 0.759), (0.0017, 0.759), (0.0014, 0.759), (0.001, 0.241),
]
CONF1_DECEASED_ROWS = [
    (0.027, 0.818), (0.014, 0.818), (0.01, 0.293), (0.01, 0.293),
    (0.01, 0.818), (0.007, 0.818), (0.006, 0.818), (0.004, 0.818),
    (0.004, 0.818), (0.004, 0.818),
]


def test_criterion_2_spot_rows():
    start = time.perf_counter()
    failures = []

    m = metrics(0.225, 0.291, 0.759)
    if abs(m.confidence - 0.773) > 0.002:
        failures.append(f"recovery-row confidence {m.confidence:.4f} vs 0.773")
    if abs(m.lift - 1.019) > 0.005:
        failures.append(f"recovery-row lift {m.lift:.4f} vs 1.019")
    if abs(m.leverage - 0.004) > 0.001:
        failures.append(f"recovery-row leverage {m.leverage:.4f} vs 0.004")

    for ant, cons in CONF1_AGE_ROWS + CONF1_OUTCOME_ROWS + CONF1_DECEASED_ROWS:
        m = metrics(ant, ant, cons)
        if m.confidence != 1.0:
            failures.append(f"conf-1 row ({ant}, {cons}): confidence {m.confidence!r}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(2, "Tables 3/4/5/6 spot-row reconstruction", failures)


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    rng = random.Random(20260823)
    supports = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
    for case in range(200):
        ts = random_transaction_set(rng, max_items=10, max_transactions=64)
        min_support = rng.choice(supports)
        cfg = MiningConfig(min_support=min_support, min_confidence=0.0, min_lift=0.0)
        fast_fi = mine_frequent(ts, cfg)
        slow_fi = brute_frequent(ts, min_support)
        if fast_fi.counts != slow_fi.counts:
            failures.append(f"case {case}: frequent itemsets diverge (min_support {min_support})")
            break
        fast_rules = generate_rules(fast_fi, cfg)
        slow_rules = brute_rules(slow_fi, cfg)
        if fast_rules.rules != slow_rules.rules:
            failures.append(f"case {case}: rule sets diverge (min_support {min_support})")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(3, "oracle equivalence over 200 randomized datasets", failures)


def test_criterion_4_feature_selection_reproduction():
    start = time.perf_counter()
    failures = []
    fractions = {
        "apnea": 0.72, "cough": 0.64, "fever": 0.59, "weakness": 0.18,
        "myalgia": 0.145, "sore_throat": 0.12, "conjunctivitis": 0.005,
        # only shown graphically in the source figures; values consistent
        # with the retained/excluded sets (taken from the rule table)
        "Ab_Chest_Xray": 0.2337, "CVD": 0.2077, "ventilator": 0.1843,
    }
    names = list(fractions)
    denom = 10_000
    fmap = FrequencyMap({i: int(fractions[n] * denom) for i, n in enumerate(names)}, denom)
    picked = {names[i] for i in select_features(fmap, 0.15)}
    expected = {"apnea", "cough", "fever", "ventilator", "Ab_Chest_Xray", "CVD", "weakness"}
    if picked != expected:
        failures.append(f"selected {sorted(picked)}, expected {sorted(expected)}")
    for excluded in ("myalgia", "sore_throat", "conjunctivitis"):
        if excluded in picked:
            failures.append(f"{excluded} must be excluded at threshold 0.15")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(4, "feature-selection reproduction", failures)


def test_criterion_5_end_to_end_synthetic(tmp_path):
    start = time.perf_counter()
    failures = []
    spec = CohortSpec(
        n=2875,
        marginals={"Apnea": 0.72, "Cough": 0.64, "Fever": 0.59},
        mortality=0.24,
        male_fraction=0.59,
        planted_pairs=[("Fever", "Cough", 0.4024)],
        seed=1234,
    )
    cohort_path = tmp_path / "cohort.csv"
    cohort_path.write_text(serialize_patient_csv(generate_cohort(spec)))
    out_path = tmp_path / "rules.json"
    rc = main([
        "mine", "--input", str(cohort_path),
        "--min-support", "0.001", "--min-lift", "1.0",
        "--format", "json", "--output", str(out_path),
    ])
    if rc != 0:
        failures.append(f"mine exited {rc}")
    else:
        rules = json.loads(out_path.read_text())
        match = [r for r in rules if r["antecedent"] == ["Fever"] and r["consequent"] == ["Cough"]]
        if not match:
            failures.append("rule Fever => Cough not emitted")
        else:
            (rule,) = match
            if abs(rule["confidence"] - 0.686) > 0.03:
                failures.append(f"confidence {rule['confidence']:.4f} outside 0.686 +/- 0.03")
            if not rule["lift"] > 1:
                failures.append(f"lift {rule['lift']:.4f} not > 1")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(5, "end-to-end synthetic cohort run", failures)


def test_criterion_6_invariant_suite():
    start = time.perf_counter()
    failures = []
    rng = random.Random(66)
    cases = 1000
    for case in range(cases):
        ts = random_transaction_set(rng, max_items=6, max_transactions=24)
        items = ts.item_ids()

        # anti-monotonicity on a random superset pair
        y = canonical_itemset(i for i in items if rng.random() < 0.5)
        x = canonical_itemset(rng.sample(y, rng.randint(0, len(y))))
        if support_of(ts, x) < support_of(ts, y):
            failures.append(f"case {case}: anti-monotonicity violated for {x} vs {y}")
            break

        cfg = MiningConfig(min_support=rng.choice([0.1, 0.2, 0.3]),
                           min_confidence=0.0, min_lift=0.0)
        rs = generate_rules(mine_frequent(ts, cfg), cfg)
        broken = None
        ranks = []
        for r in rs.rules:
            m = rs.metrics(r)
            ranks.append((-m.support, -m.confidence, r.antecedent, r.consequent))
            if m.confidence != m.lift * m.consequent_support:  # exact Fractions
                broken = f"confidence != lift * consequent_support for {r}"
            elif (m.leverage > 0) != (m.lift > 1) or (m.leverage == 0) != (m.lift == 1):
                broken = f"leverage/lift sign coupling broken for {r}"
            elif abs(m.leverage) > Fraction(1, 4):
                broken = f"|leverage| > 0.25 for {r}"
            elif not r.antecedent or not r.consequent or set(r.antecedent) & set(r.consequent):
                broken = f"antecedent/consequent not disjoint non-empty for {r}"
            if broken:
                break
        if broken:
            failures.append(f"case {case}: {broken}")
            break
        if len({(r.antecedent, r.consequent) for r in rs}) != len(rs) or ranks != sorted(ranks):
            failures.append(f"case {case}: duplicate or out-of-order rules in pipeline output")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(6, f"invariant suite ({cases} randomized cases)", failures)


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    failures = []

    synth_args = ["synth", "--n", "300", "--seed", "99",
                  "--marginal", "fever=0.5", "--marginal", "cough=0.4",
                  "--planted", "fever,cough,0.3"]
    runs = []
    for k in range(2):
        out = tmp_path / f"synth{k}.csv"
        rc = subprocess.run(
            [sys.executable, "-m", "rulemine"] + synth_args + ["--output", str(out)],
            capture_output=True,
        )
        if rc.returncode != 0:
            failures.append(f"synth run {k} exited {rc.returncode}: {rc.stderr.decode()}")
        runs.append(out.read_bytes() if out.exists() else b"")
    if runs[0] != runs[1]:
        failures.append("two synth runs differ")

    cohort = tmp_path / "synth0.csv"
    mine_args = ["mine", "--input", str(cohort), "--min-support", "0.01",
                 "--min-lift", "0.0", "--format", "csv"]
    outputs = []
    for k in range(2):
        rc = subprocess.run(
            [sys.executable, "-m", "rulemine"] + mine_args, capture_output=True
        )
        if rc.returncode != 0:
            failures.append(f"mine run {k} exited {rc.returncode}: {rc.stderr.decode()}")
        outputs.append(rc.stdout)
    if outputs[0] != outputs[1]:
        failures.append("two mine runs differ")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(7, "byte-identical repeated runs", failures)


def test_criterion_8_performance_smoke():
    failures = []
    # 10,000 transactions x 30 items, marginals spread over [0.05, 0.35]
    spec = CohortSpec(
        n=10_000,
        marginals={f"s{k:02d}": 0.05 + 0.30 * k / 29 for k in range(30)},
        seed=8,
    )
    table = generate_cohort(spec)
    cfg = DerivationConfig()
    catalog = build_catalog(table, cfg)
    ts = derive_items(table, cfg, catalog)

    start = time.perf_counter()
    mining_cfg = MiningConfig(min_support=0.01, min_confidence=0.0, min_lift=0.0)
    fi = mine_frequent(ts, mining_cfg)
    rs = generate_rules(fi, mining_cfg)
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(
            f"mining + rule generation took {elapsed:.2f}s >= 5s "
            f"({len(fi.counts)} itemsets, {len(rs.rules)} rules)"
        )
    _report(8, "performance smoke (10k x 30 at min_support 0.01)", failures)
