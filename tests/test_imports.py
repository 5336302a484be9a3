"""Import budget: ``mine``'s start-up loads only the modules it runs, and
the package root loads its submodules on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rulemine

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package root has exported, each from its defining module
ROOT_NAMES = {
    "apriori": ["FrequentItemsets", "MiningConfig", "generate_candidates", "mine_frequent"],
    "core": ["ItemCatalog", "Itemset", "TransactionSet", "canonical_itemset"],
    "features": ["item_frequencies", "project", "select_features", "union_features"],
    "ingest": ["CohortSelector", "DerivationConfig", "PatientRecord", "PatientTable",
               "build_catalog", "derive_items", "drop_sparse_patients", "filter_cohort",
               "parse_patient_csv"],
    "oracle": ["brute_frequent", "brute_rules"],
    "rules": ["MetricSet", "Rule", "RuleSet", "generate_rules", "metrics"],
    "synth": ["CohortSpec", "generate_cohort", "serialize_patient_csv"],
}


def _modules_after(statement: str) -> set[str]:
    """The modules a fresh ``python -S`` holds after running ``statement``."""
    code = f"{statement}; import sys; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_skips_what_mine_does_not_run():
    loaded = _modules_after("import rulemine.cli")
    assert "rulemine.cli" in loaded
    unused = {"dataclasses", "typing", "json", "rulemine.oracle", "rulemine.synth"}
    assert not loaded & unused


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import rulemine")
    assert "rulemine" in loaded
    assert not {m for m in loaded if m.startswith("rulemine.")}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in ROOT_NAMES.items() for n in names])
def test_root_name_resolves(module, name):
    defining = importlib.import_module(f"rulemine.{module}")
    assert getattr(rulemine, name) is getattr(defining, name)
    assert name in rulemine.__all__ and name in dir(rulemine)


def test_unknown_root_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'mine_everything'"):
        rulemine.mine_everything
