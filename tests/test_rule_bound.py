"""The bound on the partitions one untargeted rule generation enumerates
(``rules.MAX_PARTITIONS``): Σ(2^|Z| - 2) over the frequent itemsets is
known before enumeration, and a larger sum is refused. The CLI reports it
as one ``error:`` line and exit code 1."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rulemine import cli, oracle, rules
from rulemine.apriori import MiningConfig, mine_frequent
from rulemine.core import TransactionSet
from rulemine.errors import CapacityError
from rulemine.rules import generate_rules

ROOT = Path(__file__).resolve().parent.parent
MESSAGE = "(limit {}): raise --min-support, lower --max-len or give --target-consequent"
# 16 symptoms each in about 9 rows of 10
DENSE = [f"--marginal=s{j:02d}=0.9" for j in range(16)]


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    path = tmp_path_factory.mktemp("dense") / "dense.csv"
    assert cli.main(["synth", "--n", "2000", "--seed", "3", *DENSE, "--output", str(path)]) == 0
    return path


def test_generation_at_the_bound_runs_and_over_it_is_refused(monkeypatch):
    # every one of 6 items in every row but the last: 63 itemsets, and
    # Σ(2^|Z| - 2) over them is 3^6 - 2^7 + 1 = 602 partitions, each a rule
    ts = TransactionSet.from_transactions([set(range(6))] * 3 + [set()], item_ids=range(6))
    cfg = MiningConfig(min_support=0.5)
    fi = mine_frequent(ts, cfg)
    monkeypatch.setattr(rules, "MAX_PARTITIONS", 602)
    assert len(generate_rules(fi, cfg)) == 602
    monkeypatch.setattr(rules, "MAX_PARTITIONS", 601)
    with pytest.raises(CapacityError) as exc:
        generate_rules(fi, cfg)
    assert str(exc.value) == "rule generation refuses 602 partitions " + MESSAGE.format(601)


def test_a_target_is_not_bounded(monkeypatch):
    # with a target each itemset holds at most one partition
    ts = TransactionSet.from_transactions([set(range(6))] * 3 + [set()], item_ids=range(6))
    cfg = MiningConfig(min_support=0.5, target_consequent=(0,))
    monkeypatch.setattr(rules, "MAX_PARTITIONS", 0)
    assert len(generate_rules(mine_frequent(ts, cfg), cfg)) == 31


def test_the_cli_runs_at_the_bound_and_refuses_over_it(dense, monkeypatch, capsys):
    # the dense cohort at --min-support 0.7 has 696 itemsets and 3,600 partitions
    argv = ["mine", "--input", str(dense), "--no-select", "--min-support", "0.7",
            "--min-lift", "0", "--output", os.devnull]
    monkeypatch.setattr(rules, "MAX_PARTITIONS", 3600)
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(rules, "MAX_PARTITIONS", 3599)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: rule generation refuses 3600 partitions " + MESSAGE.format(3599) + "\n")


def test_verify_refuses_the_partitions_before_the_oracle_counts(dense, monkeypatch, capsys):
    def count(*args):
        raise AssertionError("the oracle counted")

    monkeypatch.setattr(oracle, "brute_frequent", count)
    argv = ["verify", "--input", str(dense), "--no-select", "--min-support", "0.3"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: rule generation refuses 31262032 partitions "
                                   + MESSAGE.format(rules.MAX_PARTITIONS) + "\n")


@pytest.mark.skipif(os.name != "posix", reason="caps the child with resource.setrlimit")
def test_a_dense_cohort_is_refused_at_once_under_a_memory_cap(dense):
    import resource

    def cap():
        # 31 million partitions would take about 7 GB: a regression fails
        # here instead of taking the machine's memory
        resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (5, 5))

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "rulemine", "mine", "--input", str(dense), "--no-select",
         "--min-support", "0.3"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        preexec_fn=cap, timeout=60)
    elapsed = time.perf_counter() - start
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == ("error: rule generation refuses 31262032 partitions "
                            + MESSAGE.format(rules.MAX_PARTITIONS) + "\n")
    assert elapsed < 10
