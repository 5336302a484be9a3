"""Frequent-itemset and association-rule mining over binary patient data.

The package root exports its names lazily (PEP 562): ``import rulemine``
loads no submodule, and the first use of ``rulemine.X`` imports the one
module that defines X. So each command loads only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "apriori": ("FrequentItemsets", "MiningConfig", "generate_candidates", "mine_frequent"),
    "core": ("ItemCatalog", "Itemset", "TransactionSet", "canonical_itemset"),
    "features": ("item_frequencies", "project", "select_features", "union_features"),
    "ingest": (
        "CohortSelector", "DerivationConfig", "PatientRecord", "PatientTable", "build_catalog",
        "derive_items", "drop_sparse_patients", "filter_cohort", "parse_patient_csv",
    ),
    "oracle": ("brute_frequent", "brute_rules"),
    "rules": ("MetricSet", "Rule", "RuleSet", "generate_rules", "metrics"),
    "synth": ("CohortSpec", "generate_cohort", "serialize_patient_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
