"""Frequent-itemset and association-rule mining over binary patient data."""

from .apriori import FrequentItemsets, MiningConfig, generate_candidates, mine_frequent
from .core import (
    Item,
    ItemCatalog,
    Itemset,
    TransactionSet,
    canonical_itemset,
    cover_of,
    support_of,
)
from .features import item_frequencies, project, select_features, union_features
from .ingest import (
    CohortSelector,
    DerivationConfig,
    PatientRecord,
    PatientTable,
    build_catalog,
    derive_items,
    drop_sparse_patients,
    filter_cohort,
    parse_patient_csv,
    serialize_patient_csv,
)
from .oracle import brute_frequent, brute_rules
from .rules import (
    MetricSet,
    Rule,
    RuleSet,
    dedup_rules,
    generate_rules,
    metrics,
    sort_rules,
)
from .synth import CohortSpec, generate_cohort

__version__ = "0.1.0"
